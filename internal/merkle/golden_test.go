package merkle_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"transedge/internal/merkle"
	"transedge/internal/protocol"
)

// Golden vectors for the ADS: roots, proof encodings and the node-hash
// preimage are pinned as literal hex, so a change to the in-memory
// representation or to the proof kernels that moves a single digest or
// proof byte fails here, not in a replica that can no longer agree on a
// certified root. The vectors use only the exported API and were recorded
// before the typed-node refactor; they pass unchanged on both sides of it.

func goldenKey(i int) []byte   { return []byte(fmt.Sprintf("golden-key-%04d", i)) }
func goldenValue(i int) []byte { return []byte(fmt.Sprintf("golden-value-%04d", i)) }

// goldenTree builds the n-key fixture through the bulk path.
func goldenTree(n int) *merkle.Tree {
	updates := make(map[string]merkle.Digest, n)
	for i := 0; i < n; i++ {
		updates[string(goldenKey(i))] = merkle.HashValue(goldenValue(i))
	}
	return merkle.New().Apply(updates)
}

var goldenRoots = []struct {
	size int
	root string
}{
	{0, "02afdd00d9d404e6916ad664cb24a0e6b00eada897aaea135dd6f1ad5b505714"},
	{1, "b4862513210b57beb6498cf42cc4a7bd685db2b1305a4010035ca5759d5f5ad4"},
	{2, "9ea6f3a3379a3ad9b254cf5d62a42b07bf50b591bb55a31af388731afe3e120a"},
	{3, "a3d84d07f69325525226d41215b55dcbb5d6ec0021db3783d456c5a86bdc3cff"},
	{8, "907a426565c8ea01df6eef49075fa18f384ea1d028cf2d7973be93b609cea2aa"},
	{1000, "0966c69cb14f21cab3d7fc0a8ecde055d6125d651dcca05da9117ef23383d6c2"},
}

// Proofs are taken against the 1000-key fixture.
const (
	goldenMemberKey  = 7
	goldenAbsentKeyA = "golden-absent-a"
	goldenAbsentKeyB = "golden-absent-b"

	goldenMemberProof = "" +
		"010000000c0000754728149fbcb507a61fa6b2f52aef923d600ca3a04b777ec876278e4c925fba0001c5f333036ef25c" +
		"7649a28f698c80b840ab410aae488b9371b901b372b8741547000251d83318e51fda0a5971099b0106c5a095351675ec" +
		"187935321389a64ebdd5110003062f0dfd5edf3f42d4b38724d1d57726b72b84151108f9dc1beb814b38f0638d0004d9" +
		"6311d81696db8f7581aae9bcee0c0bd871b2b95c27c80308ad5bcbad813f0e0005d03d8c2f02bad9d0e5de4bd978ce7d" +
		"4ba1378beeb15f9421b3c6b84ee060acea00064cef263dedc7af48c45cc85d14c283d34e1217a02de126524c2b29969e" +
		"bf976700076ef1a963313f53291b65d533d948db8e461d33932755d9a8567fa847bd7e09470008391bae3d5ec6db255d" +
		"2e0ef52194854e76400b6e11df7d43a91f88bdad22f9fc00098ba2b50f298ab108df7e4a2bc5500eaf29c25a92204682" +
		"3fdc47c96f584ee8f9000adc28bffc6accdf75fb270b9b912236bfe84d1f21d9e401f54b5933549a1a0f80000b621b70" +
		"5ae6a5f715663053f08c0e3e6b8795cd25fa3ecd37cfb1e7aabccd3b20"
	goldenAbsenceProof = "" +
		"010000000a0000754728149fbcb507a61fa6b2f52aef923d600ca3a04b777ec876278e4c925fba0001584b192fa34043" +
		"aed358387dc481bc50dfcb83e24f94b6926b18d7f17348bfad000232f60ae53a46416bc13ec3c148dae3b564d99b7551" +
		"2b3a6a2b6d928c872852c60003bf324a397ecbe3a5dc07f85cf2a9e7a42e48e6bb7b3d27494b4deee526868e4100048a" +
		"cfa4b8c56d6687488463acb7e96aa803645c073b0c92f502db4dc97efd8fbd0005e90fc517e3cd99d664980df5347a71" +
		"c6906eabf150ba6ceb8e07b120c4e359b800067a5df0d5ef25301c2699084ce04383d11b01e9a233c59088f94142361f" +
		"514a830007093d95c8399434549d3d2ff77e70d18fa059948c9015a56266229e56d3c4576b00081bfeef0fdc87c8c49e" +
		"1a632f2570e92ed14758568d3e27ccbec5aaa1cbe34a9e000a85b5783262b6951f6eee741019fe4cf10fa52e9693aa7a" +
		"d26e51542cd122ab10191c8dd190617c8aa5f97f26d0446b6a51db2ff6d4371fffc0fed456f4addbf852559e7a949c77" +
		"9361489bae11921f86c373116452b0a4f029400698ac230706"
	goldenMultiProof = "" +
		"0101000101030232f60ae53a46416bc13ec3c148dae3b564d99b75512b3a6a2b6d928c872852c60203bf324a397ecbe3" +
		"a5dc07f85cf2a9e7a42e48e6bb7b3d27494b4deee526868e4102048acfa4b8c56d6687488463acb7e96aa803645c073b" +
		"0c92f502db4dc97efd8fbd0305e90fc517e3cd99d664980df5347a71c6906eabf150ba6ceb8e07b120c4e359b803067a" +
		"5df0d5ef25301c2699084ce04383d11b01e9a233c59088f94142361f514a830207093d95c8399434549d3d2ff77e70d1" +
		"8fa059948c9015a56266229e56d3c4576b03081bfeef0fdc87c8c49e1a632f2570e92ed14758568d3e27ccbec5aaa1cb" +
		"e34a9e030a85b5783262b6951f6eee741019fe4cf10fa52e9693aa7ad26e51542cd122ab1005191c8dd190617c8aa5f9" +
		"7f26d0446b6a51db2ff6d4371fffc0fed456f4addbf852559e7a949c779361489bae11921f86c373116452b0a4f02940" +
		"0698ac23070601020203062f0dfd5edf3f42d4b38724d1d57726b72b84151108f9dc1beb814b38f0638d0204d96311d8" +
		"1696db8f7581aae9bcee0c0bd871b2b95c27c80308ad5bcbad813f0e02055241723d95e50573ff11961d7a8e24a07873" +
		"a5aa81aeb68644ed21f514e4768e0206febe3b4fc2488f2abc0f7f02636a20c684855847e3c90f3331e8e69a952a07c2" +
		"03076de3fe21ba86e208744f48c77bbf2c6bfb2a73ae762075c3a898ba1c8a5e466903088f0d8123b3331cf92f7a24a1" +
		"f79cdcd646c1682f56c9a36827e70e974a7ca07a020ab3340a913cbdf65f854b1464f6b6ad876301880438eef1b6b243" +
		"832770440242055e7411123fb62a510351df915acb101b2a3bf28f4c14a5608fa618040de8f55beebbc8699fdba05bff" +
		"4c87131c54974350592533657a5cf9feca53076e095c7d0303ecdd9488bbef25865e725b075b5d09a5ab382d27b96ac3" +
		"c2ec8fd2ef73bd9b6c0204c8c5485641d5e9da5712ae546244440ee8ffaf938c467e509b745dcb7d095124030523e59b" +
		"64c3b071cbd6eb303a9997eb62b4d94e9d5fd88dddef5f4bdd02a3bfaf03060456ad8dda2f92b5fe5d6492cc0e001670" +
		"b96134732c8e1297c30003fe1435f1030709eb969fc65c30e0efc70a6bd71cd989be4c8e2d1d6ab34068f2416c9b459a" +
		"6e0208809696cd95d3ee3afc8ceafc083f20a86a157f9007f8f1074a8be941be35210203096efc39a41a9c7cce52722e" +
		"14b535ac2fed55cfa1fe608ad5d2a14963e9274410020ac7792a233907de6a5fd7b1427225d31806af85a4bde7c0fcdf" +
		"4c17f732cb4d8c040301631b8db423fc619abd03bb4dae9c2af267590a33aedd33e85db338f66409fde601020203b4e5" +
		"b2b8a46ab34a219a885d39ddd69f096dc25709d928a8f26b670449b40fe00304baa60571d029d49fff3d5a32ca7ac154" +
		"9cbb6c7f9bc27bbc6520e8de69b309240305d7454cb7b3be331cf7832b6d659dc7638c01ea66772600195db738258a35" +
		"15970206a89c630d862d92340712c68633f15ad92518a39a6e858e83f83f72f65a8e5daf0307ff345ebac31df75a9d25" +
		"8faf63f818d3b1173712a03662437e8e3b5aa42a51730308d783ed5b7dec75db4727aabad658a9f9196ce4b09297bd5c" +
		"80ba6120c54e90d6020ba71bcc5b8560e7130dfb31d243e853984c9d99a17fcf241a0dcdc59ab92d6ac60402031c734b" +
		"f8e7608b9aa165e6688393c663d4ddf466580c4e8849d00bb6dc87fff3030490cb0233feb43b4e7a5d947c07b3ba9c5e" +
		"d77831557953166244fdbaed73430f030528585295de2ecb065cafaa7da3b372050d5bd20d923044122c319e1992049d" +
		"a103060bcc4ad7a6cb92785ac7d90996b9318a2346d7d4e2b9b254408c578b71dc2ea302072a12d484b8b130ef61c065" +
		"eb1e864c5e3100011e16a52ae08a2eb65901f723160308bb25e07b221223bd224e7af6dddb080ea659d66c21f1022ca9" +
		"e46e25e582b377020ac12414d72835ec3276df3ed70229eff81c77b4daccad54348a95074d3f921e20030bc515b021ca" +
		"3d4be0bf0b99438c1ee325a04932d045c63c70579d9747d7731e4104"
)

// goldenMultiQuery mixes membership and absence, in request order.
func goldenMultiQuery() [][]byte {
	return [][]byte{goldenKey(3), []byte(goldenAbsentKeyA), goldenKey(500), goldenKey(999), []byte(goldenAbsentKeyB)}
}

func TestGoldenRoots(t *testing.T) {
	for _, g := range goldenRoots {
		if got := fmt.Sprintf("%x", goldenTree(g.size).Root()); got != g.root {
			t.Errorf("size %d: bulk root %s, golden %s", g.size, got, g.root)
		}
		// The same content through one-key-at-a-time insertion, in
		// descending order: the root is a function of content alone.
		seq := merkle.New()
		for i := g.size - 1; i >= 0; i-- {
			seq = seq.Insert(goldenKey(i), merkle.HashValue(goldenValue(i)))
		}
		if got := fmt.Sprintf("%x", seq.Root()); got != g.root {
			t.Errorf("size %d: sequential root %s, golden %s", g.size, got, g.root)
		}
	}
}

func TestGoldenProofEncodings(t *testing.T) {
	tr := goldenTree(1000)
	root := tr.Root()

	p, _, err := tr.Prove(goldenKey(goldenMemberKey))
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(protocol.EncodeProof(&p)); got != goldenMemberProof {
		t.Errorf("membership proof\n got  %s\n want %s", got, goldenMemberProof)
	}

	ap, err := tr.ProveAbsent([]byte(goldenAbsentKeyA))
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(protocol.EncodeAbsenceProof(&ap)); got != goldenAbsenceProof {
		t.Errorf("absence proof\n got  %s\n want %s", got, goldenAbsenceProof)
	}

	mp, err := tr.ProveMulti(goldenMultiQuery())
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(protocol.EncodeMultiProof(&mp)); got != goldenMultiProof {
		t.Errorf("multi-proof\n got  %s\n want %s", got, goldenMultiProof)
	}

	// The verifiers accept the recorded bytes against the recorded root:
	// pins the verification side independently of the provers above.
	if fmt.Sprintf("%x", root) != goldenRoots[len(goldenRoots)-1].root {
		t.Fatal("fixture root differs from golden root; proof checks below are void")
	}
	dp, err := protocol.DecodeProof(mustHex(t, goldenMemberProof))
	if err != nil {
		t.Fatal(err)
	}
	if err := merkle.VerifyProof(root, goldenKey(goldenMemberKey), goldenValue(goldenMemberKey), *dp); err != nil {
		t.Errorf("golden membership proof rejected: %v", err)
	}
	dap, err := protocol.DecodeAbsenceProof(mustHex(t, goldenAbsenceProof))
	if err != nil {
		t.Fatal(err)
	}
	if err := merkle.VerifyAbsence(root, []byte(goldenAbsentKeyA), *dap); err != nil {
		t.Errorf("golden absence proof rejected: %v", err)
	}
	dmp, err := protocol.DecodeMultiProof(mustHex(t, goldenMultiProof))
	if err != nil {
		t.Fatal(err)
	}
	answers := []merkle.KeyAnswer{
		{Key: goldenKey(3), Value: goldenValue(3), Found: true},
		{Key: []byte(goldenAbsentKeyA)},
		{Key: goldenKey(500), Value: goldenValue(500), Found: true},
		{Key: goldenKey(999), Value: goldenValue(999), Found: true},
		{Key: []byte(goldenAbsentKeyB)},
	}
	if err := merkle.VerifyMulti(root, answers, *dmp); err != nil {
		t.Errorf("golden multi-proof rejected: %v", err)
	}
}

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// framed is the length-framed preimage of cryptoutil.HashConcat: each part
// is preceded by its length as a big-endian uint64.
func framed(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = binary.BigEndian.AppendUint64(out, uint64(len(p)))
		out = append(out, p...)
	}
	return out
}

// TestGoldenNodePreimage pins the node-hash preimage layout, written out
// independently of the package's own hashing code:
//
//	leaf  = SHA-256( u64(1) 0x00           u64(32) keyHash  u64(32) valHash )   89 bytes
//	inner = SHA-256( u64(3) 0x01 bitHi bitLo  u64(32) left  u64(32) right   )   91 bytes
//
// A one-key tree's root is its leaf hash; a two-key tree's root is the
// inner hash over the two leaves at their first differing key-hash bit.
func TestGoldenNodePreimage(t *testing.T) {
	leaf := func(i int) merkle.Digest {
		kh, vh := merkle.HashKey(goldenKey(i)), merkle.HashValue(goldenValue(i))
		pre := framed([]byte{0x00}, kh[:], vh[:])
		if len(pre) != 89 {
			t.Fatalf("leaf preimage is %d bytes", len(pre))
		}
		return sha256.Sum256(pre)
	}
	if got, want := goldenTree(1).Root(), leaf(0); got != want {
		t.Errorf("one-key root %x, hand-built leaf hash %x", got, want)
	}

	bit := func(d merkle.Digest, i int) byte { return (d[i>>3] >> (7 - uint(i&7))) & 1 }
	k0, k1 := merkle.HashKey(goldenKey(0)), merkle.HashKey(goldenKey(1))
	crit := 0
	for bit(k0, crit) == bit(k1, crit) {
		crit++
	}
	left, right := leaf(0), leaf(1)
	if bit(k0, crit) == 1 {
		left, right = right, left
	}
	pre := framed([]byte{0x01, byte(crit >> 8), byte(crit)}, left[:], right[:])
	if len(pre) != 91 {
		t.Fatalf("inner preimage is %d bytes", len(pre))
	}
	if got, want := goldenTree(2).Root(), merkle.Digest(sha256.Sum256(pre)); got != want {
		t.Errorf("two-key root %x, hand-built inner hash %x", got, want)
	}
}
