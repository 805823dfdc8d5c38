package core

import (
	"os"
	"path/filepath"

	"transedge/internal/protocol"
	"transedge/internal/wal"
)

// Durability layer (DESIGN.md §8), active only when NodeConfig.DataDir is
// set. Two artifacts live under the data dir:
//
//	<datadir>/wal/         group-commit log of certified batches,
//	                       appended BEFORE delivery applies them
//	<datadir>/checkpoint/  the latest persisted stable checkpoint,
//	                       written atomically (temp + rename)
//
// Cold restart composes them: install the checkpoint (verified through
// the same certificate + Merkle chain as a peer state transfer — local
// disk is NOT trusted more than a byzantine peer), replay the WAL suffix
// through the state-transfer delivery path, then rejoin consensus at the
// recovered tip and view. Peer state transfer remains the fallback for
// whatever local disk lacks: the unsynced group-commit tail, and
// everything committed while the replica was down.

// checkpointFile is the checkpoint file name inside checkpointDir.
const checkpointFile = "checkpoint.bin"

func (n *Node) walDir() string        { return filepath.Join(n.cfg.DataDir, "wal") }
func (n *Node) checkpointDir() string { return filepath.Join(n.cfg.DataDir, "checkpoint") }

// openDurability recovers whatever the data dir holds and opens the WAL
// for appending. Called from Start before the event loop runs, so it may
// touch loop-confined state freely. Durability failures never stop a
// replica: a broken disk degrades it to the seed's in-memory behavior
// (peer transfer still recovers it) and counts a WALError.
func (n *Node) openDurability() {
	if n.cfg.DataDir == "" {
		return
	}
	recoveredView, hadCheckpoint := n.loadDurableCheckpoint()

	// Replay the WAL suffix while scanning the log open. Replay uses the
	// exact state-transfer path — chain check, f+1 certificate, then
	// onDeliver — so a corrupted or forged record cannot get further here
	// than it would coming from a byzantine peer. A record that fails to
	// decode, chain, or verify truncates the log at that point (the
	// crashed append it almost certainly is), together with everything
	// after it.
	n.replaying, n.walReplay = true, true
	replayed := int64(0)
	w, err := wal.Open(wal.Options{Dir: n.walDir()}, func(id int64, payload []byte) bool {
		if id <= n.lastBatchID() {
			return true // at or below the checkpoint: already covered by it
		}
		cb, err := protocol.DecodeCertifiedBatch(payload)
		if err != nil {
			return false
		}
		if err := n.replayCertified(*cb); err != nil {
			return false
		}
		replayed++
		return true
	})
	n.replaying, n.walReplay = false, false
	if err != nil {
		n.Metrics.WALErrors++
	} else {
		n.wal = w
		n.walHandle.Store(w)
	}
	n.Metrics.WALReplayed += replayed
	if !hadCheckpoint && replayed == 0 {
		return // nothing recovered: a genuinely fresh start
	}

	// Rejoin consensus at the recovered tip, exactly like the end of a
	// peer state transfer, and at the view the checkpoint recorded (the
	// cluster can only have moved forward from there; if it did, the
	// recovering sync's StateResponse.View adoption closes the rest).
	n.rollbackInFlight()
	tip := n.log.last()
	cert, _ := n.certificate(tip) // verified on replay or install
	n.consensus.Reset(n.log.lastID(), tip.digest, tip.header, cert)
	n.consensus.AdoptView(recoveredView)
	n.Metrics.ColdRestarts++
}

// loadDurableCheckpoint reads, verifies, and installs the persisted
// stable checkpoint. Any damage — short file, CRC mismatch, decode error,
// failed certificate or Merkle verification — makes recovery proceed
// without it (the WAL from genesis, or a peer, still applies).
func (n *Node) loadDurableCheckpoint() (view uint64, ok bool) {
	raw, err := os.ReadFile(filepath.Join(n.checkpointDir(), checkpointFile))
	if err != nil {
		return 0, false
	}
	c, err := protocol.DecodeDurableCheckpointFile(raw)
	if err != nil || c.Cluster != n.cfg.Cluster || c.CheckpointID <= n.lastBatchID() {
		return 0, false
	}
	if err := n.installCheckpointParts(c.CheckpointID, c.Header, c.HeaderCert,
		c.Cert, c.Entries, c.Groups); err != nil {
		return 0, false
	}
	n.persistedChk = c.CheckpointID
	return c.View, true
}

// persistResult is the persister's report back to the loop.
type persistResult struct {
	id  int64
	err error
}

// persistCheckpoint (loop) hands a stable checkpoint to the persister. At
// most one persist runs per node; while it does, only the newest stable
// checkpoint waits behind it — a checkpoint that is superseded before its
// turn is never written.
func (n *Node) persistCheckpoint(cs *checkpointState) {
	if n.cfg.DataDir == "" || cs == nil || !cs.stable || cs.id <= n.persistedChk {
		return
	}
	c := &protocol.DurableCheckpoint{
		Cluster:      n.cfg.Cluster,
		CheckpointID: cs.id,
		View:         n.consensus.CurrentView(),
		Header:       cs.header,
		HeaderCert:   cs.headerCert,
		Cert:         cs.cert,
		Groups:       cs.groups,
	}
	if n.persisting {
		n.persistNext = c
		return
	}
	n.startPersist(c)
}

// startPersist (loop) launches the persister goroutine for c: export the
// store at the checkpoint, encode, and atomically replace the checkpoint
// file. Write-temp-then-rename keeps a crash at any instant recoverable:
// the old file survives until the new one is fully on disk. The export
// is pinned like a snapshot read — c is the stable checkpoint when this
// runs, but a newer one may lift the pruner's clamp before the export is
// through.
func (n *Node) startPersist(c *protocol.DurableCheckpoint) {
	n.persisting = true
	id := c.CheckpointID
	n.readers.retain(id)
	go func() {
		c.Entries = n.st.ExportAsOf(id)
		n.readers.release(id)
		buf := protocol.EncodeDurableCheckpointFile(c)
		if n.hookPersist != nil {
			n.hookPersist(id)
		}
		n.persistDone <- persistResult{id: id, err: atomicWrite(n.checkpointDir(), checkpointFile, buf)}
	}()
}

// onPersisted (loop) retires a finished persist. Only now, with the file
// durable, is the WAL — which stays loop-owned — truncated below the
// checkpoint that supersedes its prefix; a failed write leaves the WAL
// whole and recovery just replays more.
func (n *Node) onPersisted(r persistResult) {
	n.persisting = false
	if r.err != nil {
		n.Metrics.WALErrors++
	} else {
		n.persistedChk = r.id
		n.Metrics.CheckpointsPersisted++
		if n.wal != nil {
			if err := n.wal.Truncate(r.id + 1); err != nil {
				n.dropWAL()
			}
		}
	}
	if c := n.persistNext; c != nil {
		n.persistNext = nil
		n.startPersist(c)
	}
}

// drainPersister (loop) waits out a running persist and forgets a queued
// one. Called around a checkpoint install: before it replaces the store
// the persister exports from (a queued checkpoint belongs to the state
// being replaced), and after it, so the installed checkpoint is durable
// before anything behind it reaches the WAL.
func (n *Node) drainPersister() {
	n.persistNext = nil
	n.flushPersister()
}

// flushPersister (loop) waits out a running persist and then writes the
// queued one, if any, so the file on disk is the newest stable
// checkpoint. Called when the loop exits: once Stop returns nothing of
// this node still writes under its DataDir, and a restart on the same
// directory is the only writer of the temp file.
func (n *Node) flushPersister() {
	for n.persisting {
		n.onPersisted(<-n.persistDone)
	}
}

// atomicWrite lands data at dir/name via a temp file, fsync, and rename,
// then fsyncs the directory so the rename itself is durable.
func atomicWrite(dir, name string, data []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// walAppend logs one certified batch ahead of its delivery, with the f+1
// certificate assembled now, so a durable replica verifies at delivery.
// Failures degrade the replica to in-memory operation rather than halting
// it; so does a certificate that cannot be assembled, since replay would
// refuse the record. Suppressed while the WAL itself is being replayed
// (the records are already on disk); peer state-transfer suffixes DO
// append — they are deliveries this replica would otherwise lose again
// on the next crash.
func (n *Node) walAppend(e *logEntry) {
	if n.wal == nil || n.walReplay {
		return
	}
	cert, ok := n.certificate(e)
	if !ok {
		n.dropWAL()
		return
	}
	if err := n.wal.Append(e.batch.ID, protocol.EncodeCertifiedBatch(&protocol.CertifiedBatch{Batch: e.batch, Cert: cert})); err != nil {
		n.dropWAL()
		return
	}
	n.Metrics.WALAppended++
}

// walMaybeSync flushes an aged-out partial commit group from the tick.
func (n *Node) walMaybeSync() {
	if n.wal == nil {
		return
	}
	if err := n.wal.MaybeSync(); err != nil {
		n.dropWAL()
	}
}

// dropWAL abandons a failed log: close without flushing, count the error,
// keep serving. The replica re-acquires durability on its next restart.
func (n *Node) dropWAL() {
	n.Metrics.WALErrors++
	if n.wal != nil {
		n.wal.Close()
		n.wal = nil
		n.walHandle.Store(nil)
	}
}

// closeWAL is the graceful-shutdown close (final flush included).
func (n *Node) closeWAL() {
	if n.wal != nil {
		n.wal.Close()
		n.wal = nil
		n.walHandle.Store(nil)
	}
}

// WAL exposes the node's write-ahead log for crash-injection tests (nil
// without a DataDir, or after the log died). Only the Log's crash hooks
// and Crashed are safe to touch while the node runs; everything else is
// owned by the event loop.
func (n *Node) WAL() *wal.Log { return n.walHandle.Load() }
