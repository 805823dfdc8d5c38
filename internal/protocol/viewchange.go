package protocol

import (
	"bytes"
	"fmt"

	"transedge/internal/cryptoutil"
)

// View-change machinery (PBFT Sec. 4.4; DESIGN.md §7).
//
// When a replica's leader-progress timer fires it votes to move to a
// higher view. The vote carries the replica's *prepared frontier*: for
// every in-window slot above its certified tip, the proposal digest it
// validated together with the prepare signatures it collected. Any 2f+1
// votes form a NewView certificate from which every replica independently
// recomputes the frontier — the slots that MUST be re-proposed in the new
// view because some replica may already have delivered them.

// PrepareSig is one replica's prepare signature over
// PrepareSigDigest(cluster, view, id, digest), as carried inside a
// view-change vote.
type PrepareSig struct {
	Replica int32
	Sig     []byte
}

// PreparedEntry is one slot of a view-change vote's prepared frontier:
// the proposal the voter validated in some view, its digest, the batch
// body (so the new leader can re-propose without refetching), and every
// prepare signature the voter verified for (digest, view).
type PreparedEntry struct {
	ID       int64
	View     uint64
	Digest   Digest
	Batch    *Batch // body; not covered by the vote digest, nil after wire decode
	Prepares []PrepareSig
}

// ViewChange is a replica's signed vote to enter View. TipHeader/TipCert
// certify the voter's delivered tip (an f+1 consensus certificate), so a
// vote cannot understate committed history; Entries list the validated
// slots above the tip. Sig signs ViewChangeDigest(vc).
type ViewChange struct {
	Cluster   int32
	Replica   int32
	View      uint64
	TipHeader BatchHeader
	TipCert   cryptoutil.Certificate
	Entries   []PreparedEntry
	Sig       []byte
}

// NewView is the new leader's certificate for View: any 2f+1 verified
// view-change votes. Receivers recompute the re-proposal frontier from
// the votes themselves, so a byzantine new leader cannot smuggle slots in
// or out of it.
type NewView struct {
	Cluster int32
	View    uint64
	Votes   []*ViewChange
}

// PrepareSigDigest is the message a replica signs when sending a Prepare
// for (id, digest) in view: domain-separated from the commit certificate
// signature (which signs the bare batch digest), so a prepare signature
// can never be replayed as a certificate share or vice versa.
func PrepareSigDigest(cluster int32, view uint64, id int64, digest Digest) Digest {
	e := enc{b: make([]byte, 0, 21+4+8+8+32)}
	e.b = append(e.b, []byte("transedge-prepare-v1")...)
	e.i32(cluster)
	e.u64(view)
	e.i64(id)
	e.digest(digest)
	return cryptoutil.Hash(e.b)
}

// ViewChangeDigest is the message a view-change voter signs. It covers
// the vote position, the certified tip's header digest, and every
// frontier entry including its prepare signatures — but not the batch
// bodies (each body is authenticated by its entry digest) and not the
// tip certificate (verified separately; signatures over signatures add
// nothing).
func ViewChangeDigest(vc *ViewChange) Digest {
	h := cryptoutil.NewConcatHasher()
	h.Part([]byte("transedge-viewchange-v1"))
	tip := vc.TipHeader.Digest()
	e := getEnc()
	e.i32(vc.Cluster)
	e.i32(vc.Replica)
	e.u64(vc.View)
	e.digest(tip)
	e.u32(uint32(len(vc.Entries)))
	h.Part(e.b)
	for i := range vc.Entries {
		ent := &vc.Entries[i]
		e.b = e.b[:0]
		e.i64(ent.ID)
		e.u64(ent.View)
		e.digest(ent.Digest)
		e.u32(uint32(len(ent.Prepares)))
		for _, p := range ent.Prepares {
			e.i32(p.Replica)
			e.bytes(p.Sig)
		}
		h.Part(e.b)
	}
	putEnc(e)
	return h.Sum()
}

// headerTag is the domain tag leading every canonical BatchHeader
// encoding (see BatchHeader.Encode).
var headerTag = []byte("transedge-batch-v1")

// DecodeBatchHeader parses a canonical BatchHeader encoding (the inverse
// of BatchHeader.Encode).
func DecodeBatchHeader(b []byte) (*BatchHeader, error) {
	d := dec{b: b}
	if tag := d.take(len(headerTag)); tag == nil || !bytes.Equal(tag, headerTag) {
		return nil, fmt.Errorf("protocol: bad batch header tag")
	}
	h := &BatchHeader{
		Cluster:    d.i32(),
		ID:         d.i64(),
		PrevDigest: d.digest(),
		Timestamp:  d.i64(),
	}
	h.LocalDigest = d.digest()
	h.PreparedDigest = d.digest()
	h.CommittedDigest = d.digest()
	nc := d.u32()
	for i := uint32(0); i < nc && d.err == nil; i++ {
		h.CD = append(h.CD, d.i64())
	}
	h.LCE = d.i64()
	h.MerkleRoot = d.digest()
	if err := d.finish(); err != nil {
		return nil, err
	}
	return h, nil
}

// cert appends the canonical encoding of a certificate.
func (e *enc) cert(c *cryptoutil.Certificate) {
	e.i32(c.Cluster)
	e.u32(uint32(len(c.Signatures)))
	for _, s := range c.Signatures {
		e.i32(s.Signer.Cluster)
		e.i32(s.Signer.Replica)
		e.bytes(s.Sig)
	}
}

// cert parses a canonical certificate encoding.
func (d *dec) cert() cryptoutil.Certificate {
	c := cryptoutil.Certificate{Cluster: d.i32()}
	n := d.u32()
	for i := uint32(0); i < n && d.err == nil; i++ {
		var s cryptoutil.Signature
		s.Signer.Cluster = d.i32()
		s.Signer.Replica = d.i32()
		s.Sig = d.bytes()
		c.Signatures = append(c.Signatures, s)
	}
	return c
}

// EncodeViewChange returns the canonical encoding of vc. Batch bodies are
// deliberately excluded — on a real wire the new leader refetches any
// missing body by digest; in-process transports ship the Go value with
// bodies attached. Decoding therefore leaves Entry.Batch nil.
func EncodeViewChange(vc *ViewChange) []byte {
	var e enc
	e.i32(vc.Cluster)
	e.i32(vc.Replica)
	e.u64(vc.View)
	e.bytes(vc.TipHeader.Encode())
	e.cert(&vc.TipCert)
	e.u32(uint32(len(vc.Entries)))
	for i := range vc.Entries {
		ent := &vc.Entries[i]
		e.i64(ent.ID)
		e.u64(ent.View)
		e.digest(ent.Digest)
		e.u32(uint32(len(ent.Prepares)))
		for _, p := range ent.Prepares {
			e.i32(p.Replica)
			e.bytes(p.Sig)
		}
	}
	e.bytes(vc.Sig)
	return e.b
}

// DecodeViewChange parses a canonical ViewChange encoding.
func DecodeViewChange(b []byte) (*ViewChange, error) {
	d := dec{b: b}
	vc := &ViewChange{
		Cluster: d.i32(),
		Replica: d.i32(),
		View:    d.u64(),
	}
	hb := d.bytes()
	if d.err == nil {
		h, err := DecodeBatchHeader(hb)
		if err != nil {
			return nil, err
		}
		vc.TipHeader = *h
	}
	vc.TipCert = d.cert()
	n := d.u32()
	for i := uint32(0); i < n && d.err == nil; i++ {
		ent := PreparedEntry{ID: d.i64(), View: d.u64(), Digest: d.digest()}
		np := d.u32()
		for j := uint32(0); j < np && d.err == nil; j++ {
			ent.Prepares = append(ent.Prepares, PrepareSig{Replica: d.i32(), Sig: d.bytes()})
		}
		vc.Entries = append(vc.Entries, ent)
	}
	vc.Sig = d.bytes()
	if err := d.finish(); err != nil {
		return nil, err
	}
	return vc, nil
}

// EncodeNewView returns the canonical encoding of nv (votes nested as
// length-prefixed ViewChange encodings).
func EncodeNewView(nv *NewView) []byte {
	var e enc
	e.i32(nv.Cluster)
	e.u64(nv.View)
	e.u32(uint32(len(nv.Votes)))
	for _, v := range nv.Votes {
		e.bytes(EncodeViewChange(v))
	}
	return e.b
}

// DecodeNewView parses a canonical NewView encoding.
func DecodeNewView(b []byte) (*NewView, error) {
	d := dec{b: b}
	nv := &NewView{Cluster: d.i32(), View: d.u64()}
	n := d.u32()
	for i := uint32(0); i < n && d.err == nil; i++ {
		vb := d.bytes()
		if d.err != nil {
			break
		}
		v, err := DecodeViewChange(vb)
		if err != nil {
			return nil, err
		}
		nv.Votes = append(nv.Votes, v)
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return nv, nil
}
