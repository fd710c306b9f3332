package shard

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/countsketch"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/sketchapi"
	"repro/internal/topk"
)

// Snapshot layout: a directory holding one self-describing binary blob
// per shard (engine state via the internal/core and internal/countsketch
// serializers, plus the candidate tracker) and a manifest.json. Each
// Snapshot call gets a fresh snapshot id; its shard blobs carry the id
// in their name, and the manifest — committed last via write-temp-then-
// rename, which is atomic — is the sole pointer to the id that counts.
// A crash mid-snapshot therefore leaves the previous manifest intact
// and pointing at the previous, complete blob set: periodic snapshots
// into one directory never destroy the last good recovery point.
// Blobs from superseded or aborted snapshots are garbage-collected on
// the next successful Snapshot.

const (
	manifestName = "manifest.json"
	shardFilePat = "shard-%04d-%016x.bin"
	// manifestVersion is the classic fixed-horizon layout;
	// manifestVersionV2 marks unbounded (decay-mode) deployments, whose
	// engine blobs carry decay state — pre-decay readers refuse them
	// instead of silently serving a decayed sketch with horizon
	// semantics. Fixed deployments keep writing v1.
	manifestVersion   = 1
	manifestVersionV2 = 2
	shardMagic        = uint32(0xA5C5DA7A)
)

// snapshotMu serializes every Snapshot and Restore in the process,
// across Manager instances: a restore swap hands the periodic
// snapshotter a new manager mid-flight, and two interleaved snapshots
// into one directory could otherwise commit a manifest whose blobs the
// competing snapshot's GC already removed (or GC blobs out from under
// a concurrent Restore). Snapshots are rare; a coarse process-wide
// lock is the simple correct choice. Cross-process exclusion is the
// operator's job (one daemon per snapshot directory).
var snapshotMu sync.Mutex

// castagnoli is the CRC32C polynomial table used for snapshot file
// checksums (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// shardFileInfo records one shard blob's integrity facts in the
// manifest: its base name, byte length, and CRC32C over the whole file.
// Restore re-hashes each blob and refuses a mismatch with
// ErrSnapshotCorrupt — a truncated or bit-flipped sketch must fail
// closed, never load.
type shardFileInfo struct {
	Name   string `json:"name"`
	Bytes  int64  `json:"bytes"`
	CRC32C uint32 `json:"crc32c"`
}

type manifest struct {
	Version         int        `json:"version"`
	SnapshotID      uint64     `json:"snapshot_id"`
	Dim             int        `json:"dim"`
	Shards          int        `json:"shards"`
	Step            int        `json:"step"`
	Alpha           float64    `json:"alpha"`
	QueueLen        int        `json:"queue_len"`
	FlushOps        int        `json:"flush_ops"`
	TrackCandidates int        `json:"track_candidates"`
	InvStd          []float64  `json:"inv_std,omitempty"`
	Engine          EngineSpec `json:"engine"`
	// QueryConsistency is the deployment's default query lane; absent
	// in pre-lane snapshots, which restore as "fresh" (the semantics
	// they were written under).
	QueryConsistency Consistency `json:"query_consistency,omitempty"`
	// Admission is the deployment's ingest admission policy; absent in
	// pre-robustness snapshots, which restore as "block" (the semantics
	// they were written under).
	Admission AdmissionPolicy `json:"admission,omitempty"`
	// Files, indexed by shard, carries per-blob checksums. Absent in
	// pre-checksum manifests, which restore without verification (they
	// have nothing to verify against).
	Files []shardFileInfo `json:"files,omitempty"`
	// FoldIdle/FoldIdleTicks/FoldLevels record the snapshotting
	// deployment's idle-fold policy so a restore continues it, and
	// SnapshotFold the fold level the sketch blobs were streamed at
	// (the blobs are self-describing either way — restore reads the
	// level from the sketch header, not from here). All absent in
	// pre-fold manifests, which restore with the policy off.
	FoldIdle      time.Duration `json:"fold_idle,omitempty"`
	FoldIdleTicks int           `json:"fold_idle_ticks,omitempty"`
	FoldLevels    int           `json:"fold_levels,omitempty"`
	SnapshotFold  int           `json:"snapshot_fold,omitempty"`
	// Telemetry carries the cumulative counter baselines at snapshot
	// time, so a restored manager's counters resume monotonically
	// instead of restarting at zero. Absent in pre-baseline manifests.
	Telemetry *telemetryBaseline `json:"telemetry,omitempty"`
	// WAL records the write-ahead-log coverage of this snapshot: per
	// shard, the highest log sequence whose effect the shard blob
	// contains. Recovery replays only records above their shard's
	// coverage; log truncation may discard segments wholly at or below
	// the minimum. Absent when the snapshotting deployment ran without
	// a WAL — restoring such a snapshot against a non-empty log fails
	// closed (the overlap is unknowable).
	WAL *walManifest `json:"wal,omitempty"`
}

// walManifest is the manifest's WAL-coverage block. Cover is indexed
// by shard; Seq is the minimum (the log-truncation horizon), kept as a
// convenience for operators reading the JSON.
type walManifest struct {
	Seq   uint64   `json:"seq"`
	Cover []uint64 `json:"cover"`
}

// shardBaseline is one shard's cumulative counter baseline at the
// snapshot cut. Ops and step always traveled in the shard blob
// header; these are the worker and tracker counters that used to
// restart at zero on restore.
type shardBaseline struct {
	Batches        uint64 `json:"batches,omitempty"`
	LaneJumps      uint64 `json:"lane_jumps,omitempty"`
	Folds          uint64 `json:"folds,omitempty"`
	Unfolds        uint64 `json:"unfolds,omitempty"`
	TrackerPruned  uint64 `json:"tracker_pruned,omitempty"`
	TrackerRefused uint64 `json:"tracker_refused,omitempty"`
	ZeroIncrements uint64 `json:"zero_increments,omitempty"`
}

// telemetryBaseline aggregates the restorable cumulative telemetry:
// per-shard worker counters plus the manager-level robustness
// counters.
type telemetryBaseline struct {
	Shards          []shardBaseline `json:"shards,omitempty"`
	ShedRequests    uint64          `json:"shed_requests,omitempty"`
	DeadlineOps     uint64          `json:"deadline_ops,omitempty"`
	DeadlineQueries uint64          `json:"deadline_queries,omitempty"`
}

func shardFileName(dir string, shard int, id uint64) string {
	return filepath.Join(dir, fmt.Sprintf(shardFilePat, shard, id))
}

// Snapshot checkpoints every shard into dir (created if needed). The
// per-worker serialization runs through each shard's FIFO, so it
// observes every batch enqueued before the call (no separate Flush
// needed); under concurrent ingest the cut is per-shard-consistent,
// not globally aligned — quiesce producers for an exact global point.
// Returns ErrWarmingUp before the workers have started.
func (m *Manager) Snapshot(dir string) error {
	snapshotMu.Lock()
	defer snapshotMu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("shard: snapshot dir: %w", err)
	}
	m.mu.Lock()
	if m.warming {
		m.mu.Unlock()
		return ErrWarmingUp
	}
	// A warm-up replay in flight would make the manifest step claim a
	// prefix the shard cuts have only partially absorbed; wait it out
	// (queries keep flowing — only the snapshot waits).
	m.awaitReplay()
	man := manifest{
		Version:          manifestVersion,
		Dim:              m.cfg.Dim,
		Shards:           m.cfg.Shards,
		Step:             m.t,
		Alpha:            m.cfg.Alpha,
		QueueLen:         m.cfg.QueueLen,
		FlushOps:         m.cfg.FlushOps,
		TrackCandidates:  m.cfg.TrackCandidates,
		InvStd:           m.invStd,
		Engine:           m.spec,
		QueryConsistency: m.cfg.QueryConsistency,
		Admission:        m.cfg.Admission,
		FoldIdle:         m.cfg.FoldIdle,
		FoldIdleTicks:    m.cfg.FoldIdleTicks,
		FoldLevels:       m.cfg.FoldLevels,
		SnapshotFold:     m.cfg.SnapshotFold,
	}
	if m.spec.decaying() {
		man.Version = manifestVersionV2
	}
	m.mu.Unlock()
	man.SnapshotID = uint64(time.Now().UnixNano())
	man.Files = make([]shardFileInfo, m.cfg.Shards)
	bases := make([]shardBaseline, m.cfg.Shards)
	covers := make([]uint64, m.cfg.Shards)
	werrs := make([]error, m.cfg.Shards)
	// The snapshot cut must ride the ingest FIFO (fresh lane) so it
	// observes every batch enqueued before the call, whatever the
	// deployment's default query lane is.
	err := m.execAll(context.Background(), ConsistencyFresh, nil, func(w *worker) {
		// File IO runs on the worker goroutine: it owns the engine, and
		// stalling one shard's queue briefly is the price of a
		// lock-free hot path. Each closure writes its own slot.
		path := shardFileName(dir, w.id, man.SnapshotID)
		crc, size, err := w.writeSnapshot(path, m.cfg.SnapshotFold)
		werrs[w.id] = err
		man.Files[w.id] = shardFileInfo{Name: filepath.Base(path), Bytes: size, CRC32C: crc}
		pruned, refused := w.trackerCounts()
		bases[w.id] = shardBaseline{Batches: w.batches, LaneJumps: w.laneJumps, Folds: w.folds, Unfolds: w.unfolds,
			TrackerPruned: pruned, TrackerRefused: refused, ZeroIncrements: w.zeros}
		// The closure runs on the worker goroutine after every batch
		// enqueued before the cut, so walLast is exactly the highest log
		// sequence whose effect this blob contains.
		covers[w.id] = w.walLast
	})
	if err == nil {
		err = errors.Join(werrs...)
	}
	if err != nil {
		return err
	}
	man.Telemetry = &telemetryBaseline{
		Shards:          bases,
		ShedRequests:    m.shedRequests.Load(),
		DeadlineOps:     m.deadlineOps.Load(),
		DeadlineQueries: m.deadlineQueries.Load(),
	}
	var cutoff uint64
	if m.wlog != nil {
		cutoff = covers[0]
		for _, c := range covers[1:] {
			if c < cutoff {
				cutoff = c
			}
		}
		man.WAL = &walManifest{Seq: cutoff, Cover: covers}
	}
	if err := commitManifest(dir, man, m.faults); err != nil {
		return err
	}
	gcStaleBlobs(dir, man.SnapshotID)
	if m.wlog != nil {
		// The manifest is durable: log segments wholly at or below the
		// minimum coverage can never be needed again.
		m.wlog.log.TruncateThrough(cutoff)
	}
	var total uint64
	for _, f := range man.Files {
		total += uint64(f.Bytes)
	}
	m.lastSnapshotBytes.Store(total)
	m.snapshotsTotal.Add(1)
	return nil
}

// LastSnapshotBytes reports the byte total of this manager's most
// recent successful snapshot (0 before the first), and Snapshots the
// number of successful snapshots — the /metrics feed for snapshot
// size observability (pre-folded snapshots show up directly as a
// smaller byte total).
func (m *Manager) LastSnapshotBytes() uint64 { return m.lastSnapshotBytes.Load() }

// Snapshots reports the number of successful snapshots this manager
// has committed.
func (m *Manager) Snapshots() uint64 { return m.snapshotsTotal.Load() }

// commitManifest atomically replaces dir/manifest.json: the new
// snapshot becomes the recovery point only once its manifest rename
// lands, and the previous one stays valid until then. The temp file is
// fsynced before the rename and the directory after it, so a power
// loss cannot persist the rename ahead of the manifest's contents. The
// injector's torn-manifest fault commits a truncated JSON body through
// the same rename path — simulating exactly the on-disk state a
// non-atomic writer would leave, so restore's fail-closed behavior is
// testable.
func commitManifest(dir string, man manifest, in *faults.Injector) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(man); err != nil {
		return err
	}
	body := buf.Bytes()
	if in.TornManifest() {
		body = body[:len(body)/2]
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(body); err != nil {
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
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so renames within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// gcStaleBlobs removes shard blobs from superseded or aborted
// snapshots (best effort: leftovers cost disk, never correctness).
func gcStaleBlobs(dir string, keep uint64) {
	matches, err := filepath.Glob(filepath.Join(dir, "shard-*.bin"))
	if err != nil {
		return
	}
	suffix := fmt.Sprintf("-%016x.bin", keep)
	for _, path := range matches {
		if !strings.HasSuffix(path, suffix) {
			os.Remove(path)
		}
	}
}

// writeSnapshot serializes the worker's state to path and returns the
// CRC32C and byte length of the written file for the manifest. The
// checksum is computed over the exact bytes headed to disk (a tee on
// the buffered writer), so restore's re-hash of the file verifies the
// whole storage round trip. Injected write/fsync faults (chaos runs)
// surface as ordinary errors here, which abort the snapshot before the
// manifest commit — the previous recovery point stays intact.
//
// A positive fold level streams the engine's sketch pre-folded to
// that level (clamped per engine to its maximum) through
// WriteToFolded: up to 2^level× fewer sketch bytes on disk, same
// header, same CRC discipline.
func (w *worker) writeSnapshot(path string, fold int) (crc uint32, size int64, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	bw := bufio.NewWriterSize(w.faults.SnapshotWriter(f), 1<<20)
	sum := crc32.New(castagnoli)
	cw := &countingWriter{w: io.MultiWriter(bw, sum)}
	hdr := make([]byte, 4+16)
	binary.LittleEndian.PutUint32(hdr[0:], shardMagic)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(w.lastT))
	binary.LittleEndian.PutUint64(hdr[12:], w.ops)
	if _, err := cw.Write(hdr); err != nil {
		f.Close()
		return 0, 0, err
	}
	if fold > 0 {
		_, err = w.eng.WriteToFolded(cw, fold)
	} else {
		_, err = w.eng.WriteTo(cw)
	}
	if err != nil {
		f.Close()
		return 0, 0, err
	}
	if err := writeTracker(cw, w.track); err != nil {
		f.Close()
		return 0, 0, err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return 0, 0, err
	}
	if err := w.faults.FsyncErr(); err != nil {
		f.Close()
		return 0, 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, 0, err
	}
	return sum.Sum32(), cw.n, f.Close()
}

// countingWriter tallies bytes through a writer (the manifest's Bytes
// field, cross-checked against file size on restore).
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// writeTracker serializes the candidate tracker as a count and then
// (key, logical score) entries in the tracker's own order, which is a
// function of the offer history alone: the same stream writes the same
// bytes, and readTracker rebuilds the same order. An armed admission
// floor follows as a trailer (floorTag, key, logical score); a tracker
// that never pruned writes none, so its bytes are the pre-floor format.
func writeTracker(w io.Writer, t *topk.Tracker) error {
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(t.Len()))
	if _, err := w.Write(cnt[:]); err != nil {
		return err
	}
	buf := make([]byte, 16)
	var werr error
	t.Each(func(key uint64, score float64) {
		if werr != nil {
			return
		}
		binary.LittleEndian.PutUint64(buf[0:], key)
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(score))
		if _, err := w.Write(buf); err != nil {
			werr = err
		}
	})
	if werr != nil {
		return werr
	}
	key, score, ok := t.Floor()
	if !ok {
		return nil
	}
	var tr [4 + 16]byte
	binary.LittleEndian.PutUint32(tr[0:], floorTag)
	binary.LittleEndian.PutUint64(tr[4:], key)
	binary.LittleEndian.PutUint64(tr[12:], math.Float64bits(score))
	_, err := w.Write(tr[:])
	return err
}

// floorTag opens the tracker's floor trailer, the last record of a
// shard blob ("TFLR" little-endian).
const floorTag = 0x524c4654

// RestoreOverrides carries deployment knobs a restored daemon applies
// on top of the manifest: none of them change the serialized sketch
// state, only how the new process serves it.
type RestoreOverrides struct {
	// Admission, when non-empty, overrides the manifest's admission
	// policy (the manifest records what the snapshotting deployment
	// ran; the restoring one may differ).
	Admission AdmissionPolicy
	// WALDir, when non-empty, points at the restoring deployment's
	// write-ahead log: any tail past the manifest's coverage replays
	// before the manager serves, and the tee re-arms for new ingest.
	// Deployment state, never manifest state — the log lives where the
	// restoring process says it does. WALSync/WALSegmentBytes as in
	// Config.
	WALDir          string
	WALSync         string
	WALSegmentBytes int64
	// Faults wires the chaos injector into the restored manager.
	Faults *faults.Injector
}

// Restore rebuilds a Manager from a directory written by Snapshot and
// starts its workers; ingest resumes from the recorded step.
func Restore(dir string) (*Manager, error) {
	return RestoreWith(dir, RestoreOverrides{})
}

// RestoreWith is Restore with deployment overrides. It fails closed on
// integrity damage: a torn (truncated) manifest, or a shard blob whose
// size or CRC32C disagrees with a checksummed manifest, aborts with
// ErrSnapshotCorrupt before any state is served. Pre-checksum
// manifests (no files section) restore without verification.
func RestoreWith(dir string, o RestoreOverrides) (*Manager, error) {
	snapshotMu.Lock()
	defer snapshotMu.Unlock()
	mf, err := os.Open(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("shard: opening manifest: %w", err)
	}
	var man manifest
	err = json.NewDecoder(mf).Decode(&man)
	mf.Close()
	if err != nil {
		// Undecodable JSON at the committed name means the manifest did
		// not survive storage intact (torn write, truncation): integrity
		// damage, not a version problem.
		return nil, fmt.Errorf("shard: decoding manifest: %v: %w", err, ErrSnapshotCorrupt)
	}
	if man.Version != manifestVersion && man.Version != manifestVersionV2 {
		return nil, fmt.Errorf("shard: unsupported snapshot version %d", man.Version)
	}
	if man.Version == manifestVersionV2 && !man.Engine.decaying() {
		return nil, fmt.Errorf("shard: v2 snapshot manifest without decay state")
	}
	admission := man.Admission
	if o.Admission != "" {
		admission = o.Admission
	}
	cfg := Config{
		Dim:              man.Dim,
		Shards:           man.Shards,
		Engine:           man.Engine,
		Alpha:            man.Alpha,
		QueueLen:         man.QueueLen,
		FlushOps:         man.FlushOps,
		TrackCandidates:  man.TrackCandidates,
		InvStd:           man.InvStd,
		QueryConsistency: man.QueryConsistency,
		Admission:        admission,
		FoldIdle:         man.FoldIdle,
		FoldIdleTicks:    man.FoldIdleTicks,
		FoldLevels:       man.FoldLevels,
		SnapshotFold:     man.SnapshotFold,
		WALDir:           o.WALDir,
		WALSync:          o.WALSync,
		WALSegmentBytes:  o.WALSegmentBytes,
		Faults:           o.Faults,
	}
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if err := cfg.Engine.validate(true); err != nil {
		return nil, err
	}
	// Integrity pre-pass: re-hash every blob against the manifest before
	// parsing any of it. Restore is rare; reading each file twice is a
	// fair price for never feeding a damaged byte to a deserializer.
	if len(man.Files) > 0 {
		if len(man.Files) != man.Shards {
			return nil, fmt.Errorf("shard: manifest lists %d files for %d shards: %w",
				len(man.Files), man.Shards, ErrSnapshotCorrupt)
		}
		for i, info := range man.Files {
			if err := verifyShardFile(filepath.Join(dir, info.Name), info); err != nil {
				return nil, fmt.Errorf("shard %d: %w", i, err)
			}
		}
	}
	m := &Manager{cfg: cfg, spec: cfg.Engine, invStd: cfg.InvStd, t: man.Step}
	m.replayCond = sync.NewCond(&m.mu)
	m.tels = make([]*obs.ShardTel, cfg.Shards)
	for i := range m.tels {
		m.tels[i] = &obs.ShardTel{}
	}
	m.opFree = make(chan *rowBatch, 4*cfg.Shards)
	m.bufFree = make(chan []*rowBatch, 8)
	m.initAdmission()
	workers := make([]*worker, cfg.Shards)
	for i := range workers {
		w, err := readShard(shardFileName(dir, i, man.SnapshotID), cfg.Engine.Kind, cfg.TrackCandidates)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		w.id = i
		w.ch = make(chan msg, cfg.QueueLen)
		w.qch = make(chan msg, cfg.QueueLen)
		w.lambda = cfg.Engine.Lambda
		w.free = m.opFree
		w.faults = m.faults
		// Seed the worker counters from the manifest baseline (absent in
		// pre-baseline manifests: those restart at zero as before) so the
		// cumulative telemetry stays monotonic across the restore; wiring
		// then publishes the restored ops/step/baselines so the first
		// scrape after Restore is not blank.
		if man.Telemetry != nil && i < len(man.Telemetry.Shards) {
			b := man.Telemetry.Shards[i]
			w.batches, w.laneJumps = b.Batches, b.LaneJumps
			w.folds, w.unfolds = b.Folds, b.Unfolds
			w.prunedBase, w.refusedBase = b.TrackerPruned, b.TrackerRefused
			w.zeros = b.ZeroIncrements
		}
		w.foldSetup(cfg.FoldIdle, cfg.FoldIdleTicks, cfg.FoldLevels)
		w.wire(m.tels[i])
		workers[i] = w
		// Under concurrent ingest the manifest step is captured before
		// the per-shard cuts, so the serialized engines may already be
		// past it; resume from the furthest serialized step so freshly
		// assigned steps never collide with ones a sketch absorbed.
		if w.lastT > m.t {
			m.t = w.lastT
		}
	}
	if man.Telemetry != nil {
		m.shedRequests.Store(man.Telemetry.ShedRequests)
		m.deadlineOps.Store(man.Telemetry.DeadlineOps)
		m.deadlineQueries.Store(man.Telemetry.DeadlineQueries)
	}
	m.workers = workers
	m.workerWG.Add(len(workers))
	for _, w := range workers {
		go w.run(&m.workerWG)
	}
	if cfg.WALDir != "" {
		// Recovery tail: replay log records past the snapshot's per-shard
		// coverage through the live workers, then re-arm the tee. A
		// manifest without a WAL block restores against a non-empty log
		// only by failing closed (setupWAL enforces it).
		var cover []uint64
		if man.WAL != nil {
			if len(man.WAL.Cover) != cfg.Shards {
				return nil, fmt.Errorf("shard: manifest WAL coverage lists %d shards, want %d: %w",
					len(man.WAL.Cover), cfg.Shards, ErrSnapshotCorrupt)
			}
			cover = man.WAL.Cover
		}
		if err := m.setupWAL(cover, true); err != nil {
			m.Close()
			return nil, err
		}
	}
	return m, nil
}

// verifyShardFile re-hashes one snapshot blob and checks it against the
// manifest record. Any disagreement — wrong length, wrong checksum —
// is ErrSnapshotCorrupt.
func verifyShardFile(path string, info shardFileInfo) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("opening %s: %v: %w", info.Name, err, ErrSnapshotCorrupt)
	}
	defer f.Close()
	sum := crc32.New(castagnoli)
	n, err := io.Copy(sum, f)
	if err != nil {
		return fmt.Errorf("reading %s: %v: %w", info.Name, err, ErrSnapshotCorrupt)
	}
	if n != info.Bytes {
		return fmt.Errorf("%s is %d bytes, manifest says %d: %w", info.Name, n, info.Bytes, ErrSnapshotCorrupt)
	}
	if got := sum.Sum32(); got != info.CRC32C {
		return fmt.Errorf("%s crc32c %08x, manifest says %08x: %w", info.Name, got, info.CRC32C, ErrSnapshotCorrupt)
	}
	return nil
}

func readShard(path string, kind Kind, trackCap int) (*worker, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	hdr := make([]byte, 4+16)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("reading shard header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != shardMagic {
		return nil, fmt.Errorf("bad shard magic")
	}
	w := &worker{
		lastT: int(binary.LittleEndian.Uint64(hdr[4:])),
		ops:   binary.LittleEndian.Uint64(hdr[12:]),
	}
	var eng sketchapi.Engine
	switch kind {
	case KindCS:
		eng, err = countsketch.ReadMeanSketchFrom(br)
	case KindASCS:
		eng, err = core.ReadEngineFrom(br)
	case KindASketch:
		eng, err = baselines.ReadASketchFrom(br)
	case KindColdFilter:
		eng, err = baselines.ReadColdFilterFrom(br)
	default:
		return nil, fmt.Errorf("unknown engine kind %q", kind)
	}
	if err != nil {
		return nil, err
	}
	w.eng = eng
	w.track, err = readTracker(br, trackCap)
	if err != nil {
		return nil, err
	}
	return w, nil
}

func readTracker(r io.Reader, capacity int) (*topk.Tracker, error) {
	var cnt [4]byte
	if _, err := io.ReadFull(r, cnt[:]); err != nil {
		return nil, fmt.Errorf("reading tracker count: %w", err)
	}
	n := int(binary.LittleEndian.Uint32(cnt[:]))
	t := topk.NewTracker(capacity)
	buf := make([]byte, 16)
	for i := 0; i < n; i++ {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("reading tracker entry %d: %w", i, err)
		}
		t.Offer(binary.LittleEndian.Uint64(buf[0:]),
			math.Float64frombits(binary.LittleEndian.Uint64(buf[8:])))
	}
	// The floor is armed only after the entries are back: tracked
	// entries may rank below it (in-place updates lower them), and
	// re-offering them must not be refused. A blob that ends after the
	// entries carries no floor — written before the first prune, or by
	// a tracker that predates the floor — and restores it unarmed.
	var tr [4 + 16]byte
	switch _, err := io.ReadFull(r, tr[:]); {
	case err == io.EOF:
		return t, nil
	case err != nil:
		return nil, fmt.Errorf("reading tracker floor: %w", err)
	case binary.LittleEndian.Uint32(tr[0:]) != floorTag:
		return nil, fmt.Errorf("bad tracker floor tag %08x", binary.LittleEndian.Uint32(tr[0:]))
	}
	t.SetFloor(binary.LittleEndian.Uint64(tr[4:]), math.Float64frombits(binary.LittleEndian.Uint64(tr[12:])))
	return t, nil
}
