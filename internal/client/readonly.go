package client

import (
	"fmt"
	"time"

	"transedge/internal/cryptoutil"
	"transedge/internal/merkle"
	"transedge/internal/protocol"
)

// ROResult is a verified snapshot read-only transaction outcome.
type ROResult struct {
	// Values maps each requested key to its snapshot value (nil if the
	// key does not exist).
	Values map[string][]byte
	// Rounds counts the rounds the read took: 1 when the first responses
	// were already consistent, one more per repair round that unsatisfied
	// dependencies forced. The paper's Theorem 4.6 claims two rounds
	// always suffice; this reproduction found that with three or more
	// partitions and interleaved prepare groups a repaired batch can
	// surface a dependency (acquired at commit time from a different
	// group member's vote) that prepare-time CD piggybacks could not
	// carry, so the client iterates the repair round to a fixpoint, at
	// most maxRORounds rounds. Almost every read finishes in two.
	Rounds int
	// Batches records the batch served per accessed cluster.
	Batches map[int32]int64
	// Headers exposes the verified batch headers per cluster (CD vector,
	// LCE, Merkle root, timestamp) for inspection and tests.
	Headers map[int32]protocol.BatchHeader
}

// maxRORounds bounds the dependency-repair loop. Honest systems converge
// in two rounds almost always (three under heavy cross-group interleaving)
// — the bound only guards against byzantine servers.
const maxRORounds = 8

// roundReply is one cluster's verified answer.
type roundReply struct {
	header protocol.BatchHeader
	values []protocol.ROValue
}

// ReadOnly executes a snapshot read-only transaction (commit-rot) across
// all partitions owning the requested keys, implementing Algorithm 2:
//
//  1. ask one node per partition for values + proofs + certified header,
//  2. verify authenticity (certificate, Merkle proofs, freshness),
//  3. check every cross-partition dependency V_i[j] <= LCE_j,
//  4. if violated, ask partition j for the state covering the dependency,
//     re-verify, and check again, until no dependency is violated (at
//     most maxRORounds rounds; see ROResult.Rounds).
func (c *Client) ReadOnly(keys []string) (*ROResult, error) {
	return c.readOnly(keys, nil, nil)
}

// readOnly is ReadOnly with session pinning: floors gives, per cluster, a
// minimum batch the served snapshot must reach (monotonic reads /
// read-your-writes), and contact lists clusters that must be consulted
// even when no requested key lives there — a header-only read whose CD
// vector pulls a distributed commit's participants into the dependency
// repair loop (the session read-your-writes closure).
func (c *Client) readOnly(keys []string, floors map[int32]int64, contact []int32) (*ROResult, error) {
	// Group keys per owning partition, deduplicating. Unique request sets
	// are what make verifyRO's exactly-once coverage check sound: the
	// server answers each requested key exactly once, so a reply that
	// repeats one key to hide the omission of another cannot pass both
	// the length check and the one-use key-set check.
	byCluster := make(map[int32][]string)
	requested := make(map[string]bool, len(keys))
	for _, k := range keys {
		if requested[k] {
			continue
		}
		requested[k] = true
		cl := c.cfg.Part.Of(k)
		byCluster[cl] = append(byCluster[cl], k)
	}
	for _, cl := range contact {
		if _, ok := byCluster[cl]; !ok {
			byCluster[cl] = nil
		}
	}
	if len(byCluster) == 0 {
		return &ROResult{
			Values:  map[string][]byte{},
			Rounds:  1,
			Batches: map[int32]int64{},
			Headers: map[int32]protocol.BatchHeader{},
		}, nil
	}
	clusters := make([]int32, 0, len(byCluster))
	for cl := range byCluster {
		clusters = append(clusters, cl)
	}
	floor := func(cl int32) int64 { return floors[cl] }

	// ---- Round 1: fan out, one node per partition (commit-free). ----
	pending := make(map[int32]chan protocol.ROReply, len(clusters))
	for _, cl := range clusters {
		pending[cl] = c.sendRO(cl, byCluster[cl], -1, floor(cl))
	}
	replies := make(map[int32]*roundReply, len(clusters))
	for _, cl := range clusters {
		r, err := c.awaitRO(cl, byCluster[cl], pending[cl], floor(cl))
		if err != nil {
			return nil, err
		}
		replies[cl] = r
	}

	// ---- Dependency verification and repair (Algorithm 2). ----
	// Iterate until the snapshot is dependency-closed. Termination: every
	// repair strictly raises some partition's served LCE toward its
	// current head, so the loop reaches a fixpoint quickly; maxRORounds
	// is a defensive bound against byzantine servers feeding junk.
	rounds := 1
	for {
		needed := c.unsatisfied(clusters, replies)
		if len(needed) == 0 {
			break
		}
		if rounds >= maxRORounds {
			return nil, fmt.Errorf("%w: dependencies %v after %d rounds", ErrInconsistent, needed, rounds)
		}
		rounds++
		pending = make(map[int32]chan protocol.ROReply, len(needed))
		for cl, minLCE := range needed {
			pending[cl] = c.sendRO(cl, byCluster[cl], minLCE, floor(cl))
		}
		for cl := range needed {
			r, err := c.awaitRO(cl, byCluster[cl], pending[cl], floor(cl))
			if err != nil {
				return nil, fmt.Errorf("repair round %d: %w", rounds, err)
			}
			replies[cl] = r
		}
	}

	out := &ROResult{
		Values:  make(map[string][]byte, len(keys)),
		Rounds:  rounds,
		Batches: make(map[int32]int64, len(clusters)),
		Headers: make(map[int32]protocol.BatchHeader, len(clusters)),
	}
	for cl, r := range replies {
		out.Batches[cl] = r.header.ID
		out.Headers[cl] = r.header
		for _, v := range r.values {
			if v.Found {
				out.Values[v.Key] = v.Value
			} else {
				out.Values[v.Key] = nil
			}
		}
	}
	return out, nil
}

// sendRO issues one partition's read-only request.
func (c *Client) sendRO(cluster int32, keys []string, asOfLCE, minBatch int64) chan protocol.ROReply {
	replyTo := make(chan protocol.ROReply, 1)
	c.cfg.Net.Send(c.self, c.cfg.ROTarget(cluster), &protocol.RORequest{
		Keys: keys, AsOfLCE: asOfLCE, MinBatch: minBatch, ReplyTo: replyTo,
	})
	return replyTo
}

// awaitRO waits for and fully verifies one partition's answer.
func (c *Client) awaitRO(cluster int32, keys []string, ch chan protocol.ROReply, minBatch int64) (*roundReply, error) {
	select {
	case r := <-ch:
		return c.verifyRO(cluster, keys, &r, minBatch)
	case <-time.After(c.cfg.Timeout):
		return nil, fmt.Errorf("%w: read-only request to cluster %d", ErrTimeout, cluster)
	}
}

// verifyRO authenticates a read-only reply: the f+1 certificate over the
// batch header, one Merkle multi-proof co-proving every value (membership
// and absence) against the certified root, and optionally the freshness
// bound. A reply failing any check is rejected — this is what makes a
// single untrusted node a sufficient read quorum.
//
// Coverage is exactly-once: keys is duplicate-free (readOnly dedups), the
// reply must carry len(keys) values, and each requested key may be used
// at most once — so a byzantine server cannot repeat one validly-proven
// answer to mask the omission of another key (which would otherwise read
// back as a silent, unproven absence).
func (c *Client) verifyRO(cluster int32, keys []string, r *protocol.ROReply, minBatch int64) (*roundReply, error) {
	if r.Err != "" {
		return nil, fmt.Errorf("%w: cluster %d: %s", ErrServer, cluster, r.Err)
	}
	if r.Header.Cluster != cluster {
		return nil, fmt.Errorf("%w: reply from wrong cluster %d", ErrVerification, r.Header.Cluster)
	}
	if len(r.Header.CD) != c.cfg.Clusters {
		return nil, fmt.Errorf("%w: malformed CD vector", ErrVerification)
	}
	if minBatch > 0 && r.Header.ID < minBatch {
		return nil, fmt.Errorf("%w: batch %d below session floor %d", ErrVerification, r.Header.ID, minBatch)
	}
	d := r.Header.Digest()
	if !c.certVerified(d) {
		c.certChecks.Add(1)
		if err := cryptoutil.VerifyCertificate(c.cfg.Ring, r.Cert, d[:], c.threshold(cluster)); err != nil {
			return nil, fmt.Errorf("%w: certificate: %v", ErrVerification, err)
		}
		c.rememberCert(d)
	}
	if c.cfg.MaxStaleness > 0 {
		age := time.Duration(time.Now().UnixNano() - r.Header.Timestamp)
		if age > c.cfg.MaxStaleness {
			return nil, fmt.Errorf("%w: batch is %v old", ErrStale, age)
		}
	}
	if len(r.Values) != len(keys) {
		return nil, fmt.Errorf("%w: %d values for %d keys", ErrVerification, len(r.Values), len(keys))
	}
	// Only a zero-key reply (a session closure contact) may come without
	// a proof: it carries just the certified header.
	if len(r.Values) > 0 && r.Multi == nil {
		return nil, fmt.Errorf("%w: %d values without a multi-proof", ErrVerification, len(r.Values))
	}
	if r.Multi != nil {
		// unused starts as the requested set; matching an answer consumes
		// its key, so a duplicate (or unrequested) reply key is rejected,
		// and with the length check above every requested key is answered
		// and proven.
		unused := make(map[string]bool, len(keys))
		for _, k := range keys {
			unused[k] = true
		}
		answers := make([]merkle.KeyAnswer, len(r.Values))
		for i := range r.Values {
			v := &r.Values[i]
			if !unused[v.Key] {
				return nil, fmt.Errorf("%w: unrequested or duplicate key %q in reply", ErrVerification, v.Key)
			}
			delete(unused, v.Key)
			// A found key's leaf commits to its writer as well as its value.
			answers[i] = merkle.KeyAnswer{Key: []byte(v.Key), Value: protocol.LeafValue(nil, v.Writer, v.Value), Found: v.Found}
		}
		if err := merkle.VerifyMulti(r.Header.MerkleRoot, answers, *r.Multi); err != nil {
			return nil, fmt.Errorf("%w: multi-proof: %v", ErrVerification, err)
		}
	}
	if c.cfg.MeasureProofBytes {
		n := 0
		if r.Multi != nil {
			n = len(protocol.EncodeMultiProof(r.Multi))
		}
		c.proofReqs.Add(1)
		c.proofBytes.Add(int64(n))
	}
	c.advanceCheckpoint(cluster, r.Header)
	return &roundReply{header: r.Header, values: r.Values}, nil
}

// unsatisfied returns, per cluster, the highest dependency entry not yet
// covered by that cluster's LCE: V_i[j] > LCE_j means partition i's batch
// depends on transactions prepared at j in batch V_i[j] that partition j's
// served snapshot has not committed (lines 3–7 of Algorithm 2).
func (c *Client) unsatisfied(clusters []int32, replies map[int32]*roundReply) map[int32]int64 {
	needed := make(map[int32]int64)
	for _, i := range clusters {
		for _, j := range clusters {
			if i == j {
				continue
			}
			dep := replies[i].header.CD[j]
			if dep > replies[j].header.LCE {
				if cur, ok := needed[j]; !ok || dep > cur {
					needed[j] = dep
				}
			}
		}
	}
	return needed
}
