package merkle

// Nodes live in arenas, one per lineage: a tree built by Build (or by the
// first write to an empty tree) and every version derived from it by
// Insert and ApplyBulk append their nodes to the same arena, and link
// children by 32-bit index instead of by pointer. Neither node type holds
// a pointer, so every chunk is allocated in spans the collector never
// scans, and a node costs its own bytes and no allocation header.
//
// Chunks never move once allocated, and nodes are written once, before the
// version that links them is published. A version reads through the view
// of the chunks it was published with, so the writer's later appends — to
// new chunks, or to unused slots of a chunk the view already holds — never
// touch memory a reader of an older version reads.

// ref names one node of an arena: an index into its leaves when leafRef is
// set, into its inner nodes otherwise.
type ref uint32

const leafRef ref = 1 << 31

func (r ref) isLeaf() bool { return r&leafRef != 0 }

// Growth chunks each fill the allocator's 8 KiB size class (186 × 44 B =
// 8184 B, 128 × 64 B = 8192 B), so the slack a lineage carries is at most
// one partly filled chunk per node type. The base chunks Build and Compact
// allocate are sized exactly instead.
const (
	innerChunk = 186
	leafChunk  = 128
)

// nodes is one published view of an arena's chunks: the exactly sized base
// chunks, then the fixed-size growth chunks in allocation order.
type nodes struct {
	a           *arena
	inners      []inner
	leaves      []leaf
	innerChunks []*[innerChunk]inner
	leafChunks  []*[leafChunk]leaf
}

func (v *nodes) in(r ref) *inner {
	i := int(r)
	if i < len(v.inners) {
		return &v.inners[i]
	}
	i -= len(v.inners)
	return &v.innerChunks[i/innerChunk][i%innerChunk]
}

func (v *nodes) lf(r ref) *leaf {
	i := int(r &^ leafRef)
	if i < len(v.leaves) {
		return &v.leaves[i]
	}
	i -= len(v.leaves)
	return &v.leafChunks[i/leafChunk][i%leafChunk]
}

// hash returns the subtree's hash. An inner node's is cached; a leaf's is
// computed on every call, so each read of it counts in HashOps: once when
// a parent links the fresh leaf, and again only when a rebuilt parent, the
// root of a one-key tree or a proof needs an untouched one.
func (v *nodes) hash(r ref) Digest {
	if r.isLeaf() {
		lf := v.lf(r)
		return leafHash(lf.keyHash, lf.valHash)
	}
	return v.in(r).hash
}

// arena is the writer's side of a lineage: its newest view, how many nodes
// of each type it holds, and how many it held when Build or Compact made it
// (the live count the compaction trigger measures growth against).
type arena struct {
	view           *nodes
	inners, leaves int
	base           int
}

// newArena returns an arena whose base chunks hold exactly the given node
// counts.
func newArena(inners, leaves int) *arena {
	a := &arena{base: inners + leaves}
	a.view = &nodes{a: a, inners: make([]inner, inners), leaves: make([]leaf, leaves)}
	return a
}

// newLeaf and newInner append one node, first replacing a full view with
// one that also holds a fresh chunk. Older views keep their shorter
// directories: the append writes only past them.

func (a *arena) newLeaf(keyHash, valHash Digest) ref {
	if a.leaves == len(a.view.leaves)+len(a.view.leafChunks)*leafChunk {
		v := *a.view
		v.leafChunks = append(v.leafChunks, new([leafChunk]leaf))
		a.view = &v
	}
	r := ref(a.leaves) | leafRef
	*a.view.lf(r) = leaf{keyHash: keyHash, valHash: valHash}
	a.leaves++
	return r
}

func (a *arena) newInner(bit int16, left, right ref) ref {
	if a.inners == len(a.view.inners)+len(a.view.innerChunks)*innerChunk {
		v := *a.view
		v.innerChunks = append(v.innerChunks, new([innerChunk]inner))
		a.view = &v
	}
	r := ref(a.inners)
	v := a.view
	*v.in(r) = inner{hash: innerHash(bit, v.hash(left), v.hash(right)), left: left, right: right, bit: bit}
	a.inners++
	return r
}

// publish returns the version rooted at root, read through the current
// view.
func (a *arena) publish(root ref, size int) *Tree {
	return &Tree{nodes: a.view, root: root, size: size}
}

// Arena reports the arena t's lineage lives in: how many nodes it holds,
// and how many of them it was built or last compacted with. An empty tree
// has no arena. The counts are the writer's state: only the lineage's one
// writer may read them.
func (t *Tree) Arena() (nodes, base int) {
	if t.nodes == nil {
		return 0, 0
	}
	a := t.nodes.a
	return a.inners + a.leaves, a.base
}

// SharesArena reports whether t and u are versions of one lineage, whose
// nodes live in one arena.
func (t *Tree) SharesArena(u *Tree) bool {
	return t.nodes != nil && u.nodes != nil && t.nodes.a == u.nodes.a
}

// Compact copies the nodes reachable from versions into one fresh arena,
// sized exactly, and returns the versions re-rooted there, in input order.
// Every root, length, walk order and proof stays as it was; a node shared
// by several versions is copied once, and an input *Tree listed twice maps
// to one result. The input arenas are not touched, so readers still
// holding an input version keep reading it, and the collector frees an
// arena once no version refers to it. Compact writes every lineage it is
// given: its caller must be their one writer, and becomes the writer of
// the merged lineage.
func Compact(versions []*Tree) []*Tree {
	m := markReachable(versions)
	dst := newArena(m.inners, m.leaves)
	for src, f := range m.fwd {
		f.copyInto(src.view, dst.view)
	}
	dst.inners, dst.leaves = m.inners, m.leaves
	out := make([]*Tree, len(versions))
	moved := make(map[*Tree]*Tree, len(versions))
	for i, t := range versions {
		if t.size == 0 {
			out[i] = t
			continue
		}
		if moved[t] == nil {
			moved[t] = dst.publish(m.fwd[t.nodes.a].to(t.root), t.size)
		}
		out[i] = moved[t]
	}
	return out
}

// Reachable returns how many distinct nodes versions reach: the node count
// of the arena Compact(versions) builds. Like Compact, it belongs to the
// writer.
func Reachable(versions []*Tree) int {
	m := markReachable(versions)
	return m.inners + m.leaves
}

// forward maps an arena's nodes to their copies: one plus the copy's index,
// or 0 for a node no version reaches.
type forward struct {
	inners, leaves []uint32
}

func (f *forward) to(r ref) ref {
	if r.isLeaf() {
		return ref(f.leaves[r&^leafRef]-1) | leafRef
	}
	return ref(f.inners[r] - 1)
}

// copyInto writes every reached node of src to its slot in dst, its child
// links forwarded.
func (f *forward) copyInto(src, dst *nodes) {
	for i, to := range f.inners {
		if to != 0 {
			n := *src.in(ref(i))
			n.left, n.right = f.to(n.left), f.to(n.right)
			dst.inners[to-1] = n
		}
	}
	for i, to := range f.leaves {
		if to != 0 {
			dst.leaves[to-1] = *src.lf(ref(i) | leafRef)
		}
	}
}

// marking numbers the nodes versions reach, per source arena, in the
// preorder of the first version that reaches each.
type marking struct {
	fwd            map[*arena]*forward
	inners, leaves int
}

func markReachable(versions []*Tree) *marking {
	m := &marking{fwd: make(map[*arena]*forward)}
	for _, t := range versions {
		if t.size == 0 {
			continue
		}
		a := t.nodes.a
		f := m.fwd[a]
		if f == nil {
			f = &forward{inners: make([]uint32, a.inners), leaves: make([]uint32, a.leaves)}
			m.fwd[a] = f
		}
		m.mark(a.view, f, t.root)
	}
	return m
}

// mark numbers the nodes under r that no earlier walk reached. A reached
// inner node's subtree is reached already, so shared structure is walked
// once.
func (m *marking) mark(v *nodes, f *forward, r ref) {
	for !r.isLeaf() {
		if f.inners[r] != 0 {
			return
		}
		m.inners++
		f.inners[r] = uint32(m.inners)
		n := v.in(r)
		m.mark(v, f, n.left)
		r = n.right
	}
	if i := r &^ leafRef; f.leaves[i] == 0 {
		m.leaves++
		f.leaves[i] = uint32(m.leaves)
	}
}
