package shard

// Durable ingest: the shard layer's write-ahead-log threading. Workers
// tee every *applied* ingest batch — the recycled rowBatch itself, no
// copy — to a single group-commit goroutine, which encodes the batch
// in PR 8's columnar row-run layout, appends it to the segment log
// (internal/wal), fsyncs per the configured policy, and only then
// returns the batch to the staging freelist. The hot path's cost is
// one channel send per batch (a small value struct: zero allocations),
// and the sequence numbers the workers stamp at tee time give every
// shard a strictly increasing subsequence in the log — the property
// replay depends on.
//
// Recovery inverts the tee: restore the newest valid snapshot, scan
// the log (torn tails truncate, mid-log damage fails closed), and feed
// every record past the snapshot's per-shard coverage back through the
// worker FIFOs as ordinary ingest batches. Because records preserve
// exact batch boundaries, the replayed per-shard apply sequence is the
// one the crashed process ran — ASCS gate decisions and all — so the
// recovered tables are bit-identical to a clean run over the durable
// prefix.

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wal"
)

// walItem is one applied batch in flight to the group-commit loop.
type walItem struct {
	seq uint64
	sh  int
	b   *rowBatch
}

// walState owns the log handle and the group-commit goroutine.
type walState struct {
	log      *wal.Log
	mode     wal.SyncMode
	interval time.Duration

	// ch carries applied batches from the workers; closed by Close
	// after the workers exit. The blocking send is the backpressure:
	// a log that cannot keep up slows ingest instead of losing data.
	ch   chan walItem
	done chan struct{}
	// free is the manager's staging freelist; the loop returns each
	// batch there after encoding it.
	free chan *rowBatch

	// enc is the loop-owned encode scratch, reused per record.
	enc []byte

	// armed flips false when a write error disarms the log: serving
	// continues, durability is degraded loudly (metrics + stats).
	armed atomic.Bool

	errMu   sync.Mutex
	lastErr string

	// recovery is written once during setup, read-only after.
	recovery WALRecovery
}

// WALRecovery reports what one boot's recovery pass did.
type WALRecovery struct {
	// ReplayedRecords/ReplayedOps count the WAL records (and their pair
	// increments) fed back through the worker FIFOs; SkippedRecords
	// were at or below the restored snapshot's coverage.
	ReplayedRecords uint64 `json:"replayed_records"`
	ReplayedOps     uint64 `json:"replayed_ops"`
	SkippedRecords  uint64 `json:"skipped_records"`
	// MaxSeq is the highest sequence number scanned; fresh appends
	// resume above it.
	MaxSeq uint64 `json:"max_seq"`
	// Torn reports a truncated tail in the newest segment (the expected
	// crash signature); TornBytes is how much was discarded there.
	Torn      bool  `json:"torn,omitempty"`
	TornBytes int64 `json:"torn_bytes,omitempty"`
	// DurationSeconds is the wall time of scan + replay + arming.
	DurationSeconds float64 `json:"duration_seconds"`
}

// WALStats is the live durability status served through /v1/stats and
// scraped into the ascs_wal_* metric families.
type WALStats struct {
	Armed             bool        `json:"armed"`
	Sync              string      `json:"sync"`
	LastSeq           uint64      `json:"last_seq"`
	Segments          int         `json:"segments"`
	AppendedBytes     uint64      `json:"appended_bytes"`
	Records           uint64      `json:"records"`
	Fsyncs            uint64      `json:"fsyncs"`
	Errors            uint64      `json:"errors"`
	TruncatedSegments uint64      `json:"truncated_segments"`
	LastError         string      `json:"last_error,omitempty"`
	Recovery          WALRecovery `json:"recovery"`
}

// WALStats returns the log's serving status, or nil when the
// deployment runs without a WAL.
func (m *Manager) WALStats() *WALStats {
	ws := m.wlog
	if ws == nil {
		return nil
	}
	ls := ws.log.Stats()
	ws.errMu.Lock()
	lastErr := ws.lastErr
	ws.errMu.Unlock()
	return &WALStats{
		Armed:             ws.armed.Load(),
		Sync:              ws.mode.String(),
		LastSeq:           m.walSeq.Load(),
		Segments:          ls.Segments,
		AppendedBytes:     ls.AppendedBytes,
		Records:           ls.Records,
		Fsyncs:            ls.Fsyncs,
		Errors:            ls.Errors,
		TruncatedSegments: ls.TruncatedSegments,
		LastError:         lastErr,
		Recovery:          ws.recovery,
	}
}

// walConfigName is the config pin: a JSON record of the engine-
// affecting configuration the deployment that writes the log actually
// runs, written into the WAL directory when the tee arms (after
// warm-up derivation, so the pinned schedule is the one the engines
// use). The segment headers pin only dim/shards — this file pins the
// rest, so a replay into a differently-configured engine (changed
// window, decay, schedule, sketch shape, engine kind) fails closed
// instead of silently producing state that matches neither the old
// deployment nor a clean new one.
const walConfigName = "wal-config.json"

// walConfig is the pinned configuration. EngineSpec is all scalars, so
// the struct is ==-comparable and survives a JSON round trip exactly.
type walConfig struct {
	Dim    int        `json:"dim"`
	Shards int        `json:"shards"`
	Engine EngineSpec `json:"engine"`
}

// loadWALConfig reads the pin, returning nil (no error) when no pin
// has ever been written.
func loadWALConfig(dir string) (*walConfig, error) {
	b, err := os.ReadFile(filepath.Join(dir, walConfigName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("shard: reading WAL config pin: %w", err)
	}
	var c walConfig
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("shard: WAL config pin undecodable: %v: %w", err, wal.ErrCorrupt)
	}
	return &c, nil
}

// writeWALConfig pins the running configuration (tmp + rename, fsynced
// like the snapshot manifest). Called before the tee arms, so a log
// that holds records always has the pin that wrote them.
func writeWALConfig(dir string, c walConfig) error {
	body, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return fmt.Errorf("shard: encoding WAL config pin: %w", err)
	}
	tmp := filepath.Join(dir, walConfigName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(body, '\n')); err != nil {
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
	if err := os.Rename(tmp, filepath.Join(dir, walConfigName)); err != nil {
		return err
	}
	return syncDir(dir)
}

// setupWAL scans the configured log directory, replays any tail past
// the snapshot coverage through the worker FIFOs, opens a fresh active
// segment, and starts the group-commit loop. Called single-threaded at
// the end of construction (New or RestoreWith), before the manager is
// reachable by any other goroutine.
//
// cover is the restored snapshot's per-shard coverage (nil for a fresh
// manager: every record replays); restored distinguishes "fresh
// manager, zero coverage is correct" from "restored from a pre-WAL
// snapshot whose overlap with the log is unknown" — the latter fails
// closed when the log holds records. A manager still buffering its
// warm-up prefix has no workers to replay into, so any record is fatal
// there too; an empty (or brand-new) log arms when the workers start.
func (m *Manager) setupWAL(cover []uint64, restored bool) error {
	mode, interval, err := wal.ParseSync(m.cfg.WALSync)
	if err != nil {
		return err
	}
	meta := wal.Meta{Dim: m.cfg.Dim, Shards: m.cfg.Shards}
	// The pin that wrote any existing records; loaded before the scan so
	// the first record can be checked against the configuration this
	// manager actually runs (m.spec: the manifest's engine when
	// restored, the flag-built one for a fresh manager).
	pin, err := loadWALConfig(m.cfg.WALDir)
	if err != nil {
		return err
	}
	pinChecked := false
	cur := walConfig{Dim: m.cfg.Dim, Shards: m.cfg.Shards, Engine: m.spec}
	start := time.Now()
	var rec WALRecovery
	noCover := cover == nil
	if noCover {
		cover = make([]uint64, m.cfg.Shards)
	}
	// perShardLast tracks the highest sequence applied per shard across
	// snapshot coverage and replay: it seeds each worker's walLast so
	// the next snapshot's coverage stays monotone, and it enforces the
	// per-shard ordering invariant over the scanned records.
	perShardLast := append([]uint64(nil), cover...)
	lastScanned := make([]uint64, m.cfg.Shards)
	maxT := 0
	scanRes, err := wal.Scan(m.cfg.WALDir, meta, true, func(seq uint64, payload []byte) error {
		if m.warming {
			return fmt.Errorf("shard: WAL at %s holds records but this deployment is still warming up; restore the covering snapshot or point the WAL at a fresh directory: %w",
				m.cfg.WALDir, wal.ErrCorrupt)
		}
		if restored && noCover {
			return fmt.Errorf("shard: WAL at %s holds records but the restored snapshot predates WAL coverage; its overlap with the log is unknown: %w",
				m.cfg.WALDir, wal.ErrCorrupt)
		}
		if !pinChecked {
			pinChecked = true
			if pin == nil {
				return fmt.Errorf("shard: WAL at %s holds records but no config pin (%s); the log cannot be matched to a deployment configuration: %w",
					m.cfg.WALDir, walConfigName, wal.ErrCorrupt)
			}
			if *pin != cur {
				return fmt.Errorf("shard: WAL at %s was written under a different engine configuration (pinned %+v, running %+v); replaying it would produce state matching neither deployment — restore the covering snapshot with matching flags, or point -wal-dir at a fresh directory: %w",
					m.cfg.WALDir, pin.Engine, cur.Engine, wal.ErrCorrupt)
			}
		}
		b := m.getBatch()
		sh, t, err := decodeWALPayload(payload, m.cfg.Shards, b)
		if err != nil {
			m.recycleBatch(b)
			return err
		}
		if seq <= lastScanned[sh] {
			m.recycleBatch(b)
			return fmt.Errorf("shard: WAL sequence %d for shard %d not after %d: %w", seq, sh, lastScanned[sh], wal.ErrCorrupt)
		}
		lastScanned[sh] = seq
		if seq <= cover[sh] {
			// The snapshot already contains this batch's effect.
			rec.SkippedRecords++
			m.recycleBatch(b)
			return nil
		}
		perShardLast[sh] = seq
		if t > maxT {
			maxT = t
		}
		rec.ReplayedRecords++
		rec.ReplayedOps += uint64(b.pairs())
		// Normal ingest delivery: the worker applies the batch through
		// the same step-packed OfferPairs path (unfolding first if an idle fold or a
		// folded snapshot left the engine coarse), then recycles it —
		// the tee is not armed yet, so replay never re-logs itself.
		m.workers[sh].ch <- msg{ops: b, enq: time.Now()}
		return nil
	})
	if err != nil {
		return err
	}
	l, err := wal.Open(wal.Options{
		Dir:          m.cfg.WALDir,
		SegmentBytes: m.cfg.WALSegmentBytes,
		Meta:         meta,
		Faults:       m.faults,
	})
	if err != nil {
		return err
	}
	if !m.warming {
		// Pin the running configuration before the tee can arm. A warming
		// manager defers this to start(): its schedule is not derived yet,
		// and nothing can be teed until the workers exist.
		if err := writeWALConfig(m.cfg.WALDir, cur); err != nil {
			return err
		}
	}
	// Fresh sequences resume above everything ever covered or logged.
	seq := scanRes.MaxSeq
	for _, c := range cover {
		if c > seq {
			seq = c
		}
	}
	m.walSeq.Store(seq)
	ws := &walState{
		log:      l,
		mode:     mode,
		interval: interval,
		ch:       make(chan walItem, walQueueLen(m.cfg.Shards)),
		done:     make(chan struct{}),
		free:     m.opFree,
	}
	ws.armed.Store(true)
	m.wlog = ws
	go ws.loop()
	if !m.warming {
		// Advance the global step past the replayed tail, then arm the
		// tee on each worker's own goroutine via the ingest FIFO: the
		// closure runs after every replayed batch, so arming can neither
		// race the replay nor re-log it.
		m.mu.Lock()
		if maxT > m.t {
			m.t = maxT
		}
		m.mu.Unlock()
		err := m.execAll(context.Background(), ConsistencyFresh, nil, func(w *worker) {
			w.wal = ws.ch
			w.walGlobal = &m.walSeq
			w.walLast = perShardLast[w.id]
			w.publish()
		})
		if err != nil {
			return err
		}
	}
	rec.MaxSeq = scanRes.MaxSeq
	rec.Torn = scanRes.Torn
	rec.TornBytes = scanRes.TornBytes
	rec.DurationSeconds = time.Since(start).Seconds()
	ws.recovery = rec
	return nil
}

// recycleBatch returns a staging batch to the freelist (dropping it
// when full, like every other recycle point).
func (m *Manager) recycleBatch(b *rowBatch) {
	select {
	case m.opFree <- b.reset():
	default:
	}
}

// closeWAL retires the group-commit loop and the log. Called by Close
// after the workers have exited (no sender remains).
func (m *Manager) closeWAL() {
	ws := m.wlog
	if ws == nil {
		return
	}
	close(ws.ch)
	<-ws.done
	ws.log.Close()
}

// walQueueLen sizes the tee channel: deep enough that a group commit
// coalesces many batches under load, bounded so a stuck disk turns
// into ingest backpressure instead of unbounded buffering.
func walQueueLen(shards int) int {
	if n := 4 * shards; n > 64 {
		return n
	}
	return 64
}

// loop is the group-commit goroutine: it blocks for one batch, drains
// whatever else is queued (the commit group), encodes and appends each
// record, recycles the batches, and syncs per the policy. A write
// error disarms the log — remaining and future batches are recycled
// unwritten, serving continues, and the failure is visible in
// WALStats/metrics rather than fatal to ingest.
func (ws *walState) loop() {
	defer close(ws.done)
	var tickC <-chan time.Time
	if ws.mode == wal.SyncInterval {
		tick := time.NewTicker(ws.interval)
		defer tick.Stop()
		tickC = tick.C
	}
	failed := false
	pending := make([]walItem, 0, 64)
	for {
		select {
		case it, ok := <-ws.ch:
			if !ok {
				return
			}
			pending = append(pending[:0], it)
		coalesce:
			for {
				select {
				case it, ok := <-ws.ch:
					if !ok {
						break coalesce
					}
					pending = append(pending, it)
				default:
					break coalesce
				}
			}
			for _, it := range pending {
				if !failed {
					ws.enc = appendWALPayload(ws.enc[:0], it.sh, it.b)
					if err := ws.log.Append(it.seq, ws.enc); err != nil {
						failed = true
						ws.disarm(err)
					}
				}
				select {
				case ws.free <- it.b.reset():
				default:
				}
			}
			if failed {
				continue
			}
			var err error
			if ws.mode == wal.SyncBatch {
				err = ws.log.Sync()
			} else {
				err = ws.log.Flush()
			}
			if err != nil {
				failed = true
				ws.disarm(err)
			}
		case <-tickC:
			if !failed {
				if err := ws.log.Sync(); err != nil {
					failed = true
					ws.disarm(err)
				}
			}
		}
	}
}

func (ws *walState) disarm(err error) {
	ws.armed.Store(false)
	ws.errMu.Lock()
	ws.lastErr = err.Error()
	ws.errMu.Unlock()
}

// appendWALPayload encodes one routed batch in the columnar row-run
// layout (little-endian): shard, run headers (base, step, length), the
// partner column, the increment column. Appending onto the reusable
// scratch keeps the loop allocation-free at steady state.
func appendWALPayload(dst []byte, sh int, b *rowBatch) []byte {
	dst = le32(dst, uint32(sh))
	dst = le32(dst, uint32(len(b.hdrs)))
	for _, h := range b.hdrs {
		dst = le64(dst, h.base)
		dst = le64(dst, uint64(int64(h.t)))
		dst = le32(dst, uint32(h.n))
	}
	dst = le32(dst, uint32(len(b.prt)))
	for _, p := range b.prt {
		dst = le64(dst, p)
	}
	for _, x := range b.xs {
		dst = le64(dst, math.Float64bits(x))
	}
	return dst
}

// decodeWALPayload parses one record back into a staging batch,
// validating the structure a CRC cannot: a record that passed its
// checksum but decodes inconsistently is corruption and fails closed.
// Returns the owning shard and the record's highest step.
func decodeWALPayload(p []byte, shards int, b *rowBatch) (sh, maxT int, err error) {
	bad := func(what string) (int, int, error) {
		return 0, 0, fmt.Errorf("shard: WAL record %s: %w", what, wal.ErrCorrupt)
	}
	if len(p) < 8 {
		return bad("too short")
	}
	sh = int(binary.LittleEndian.Uint32(p[0:]))
	nh := int(binary.LittleEndian.Uint32(p[4:]))
	if sh < 0 || sh >= shards {
		return bad(fmt.Sprintf("names shard %d of %d", sh, shards))
	}
	p = p[8:]
	if len(p) < nh*20+4 {
		return bad("truncated run headers")
	}
	total := 0
	for i := 0; i < nh; i++ {
		base := binary.LittleEndian.Uint64(p[0:])
		t := int(int64(binary.LittleEndian.Uint64(p[8:])))
		n := int(binary.LittleEndian.Uint32(p[16:]))
		p = p[20:]
		if t < 1 || n < 1 {
			return bad(fmt.Sprintf("run with step %d length %d", t, n))
		}
		if maxT < t {
			maxT = t
		}
		total += n
		b.hdrs = append(b.hdrs, rowHdr{base: base, t: t, n: n})
	}
	np := int(binary.LittleEndian.Uint32(p[0:]))
	p = p[4:]
	if np != total {
		return bad(fmt.Sprintf("pair count %d != run total %d", np, total))
	}
	if len(p) != np*16 {
		return bad("column length mismatch")
	}
	for i := 0; i < np; i++ {
		b.prt = append(b.prt, binary.LittleEndian.Uint64(p[i*8:]))
	}
	p = p[np*8:]
	for i := 0; i < np; i++ {
		b.xs = append(b.xs, math.Float64frombits(binary.LittleEndian.Uint64(p[i*8:])))
	}
	return sh, maxT, nil
}

func le32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func le64(dst []byte, v uint64) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}
