package bench

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"sstore/bench/apps"
	"sstore/internal/bufferpool"
	"sstore/internal/ee"
	"sstore/internal/page"
	"sstore/internal/pe"
	"sstore/internal/recovery"
	"sstore/internal/storage"
	"sstore/internal/stream"
	"sstore/internal/txn"
	"sstore/internal/types"
	"sstore/internal/wal"
	"sstore/internal/wire"
)

// Layer replay: what a served run cannot see from outside is measured
// by driving one layer's public API single-threaded inside this
// process, with the same seeded input. replayOps is how many operations
// each replay times.
const replayOps = 20000

// perOp times n calls of fn and returns the mean in nanoseconds.
func perOp(n int, fn func(i int) error) (float64, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n), nil
}

// eachOp times n calls of fn one by one and returns the durations in
// microseconds.
func eachOp(n int, fn func(i int) error) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return out, nil
}

var spinSink uint64

// spinMs times a fixed arithmetic loop: the host's speed right now, so
// a slow host shows in the result instead of reading as a regression.
func spinMs() float64 {
	start := time.Now()
	x := uint64(1)
	for i := 0; i < 100_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	spinSink = x
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// --- wire ---

// wireReplay pushes the workload's real ingest frames and their acks
// through the codec the client and server call.
func (r *run) wireReplay() error {
	f := newFeed(r.o.Workload.App, r.o.Seed)
	reqs := make([]wire.Request, replayOps)
	for i := range reqs {
		reqs[i] = wire.Request{ID: uint64(i + 1), Op: wire.OpIngest, Stream: f.stream(),
			BatchID: int64(i + 1), Rows: []types.Row{f.next()}}
	}
	var frames, one []byte
	encReq, err := perOp(replayOps, func(i int) error {
		one = wire.AppendRequest(one[:0], &reqs[i])
		frames = append(frames, one...)
		return nil
	})
	if err != nil {
		return err
	}
	br := bufio.NewReader(bytes.NewReader(frames))
	var scratch []byte
	decReq, err := perOp(replayOps, func(int) error {
		payload, err := wire.ReadFrameBuf(br, scratch)
		scratch = payload
		if err != nil {
			return err
		}
		_, err = wire.DecodeRequest(payload)
		return err
	})
	if err != nil {
		return err
	}
	var respFrames []byte
	encResp, err := perOp(replayOps, func(i int) error {
		one = wire.AppendResponse(one[:0], &wire.Response{ID: reqs[i].ID, Op: wire.OpIngest, Status: wire.StatusOK, BatchID: reqs[i].BatchID})
		respFrames = append(respFrames, one...)
		return nil
	})
	if err != nil {
		return err
	}
	br = bufio.NewReader(bytes.NewReader(respFrames))
	decResp, err := perOp(replayOps, func(int) error {
		payload, err := wire.ReadFrameBuf(br, scratch)
		scratch = payload
		if err != nil {
			return err
		}
		_, err = wire.DecodeResponse(payload)
		return err
	})
	if err != nil {
		return err
	}
	r.values["wire.req_bytes_per_batch"] = float64(len(frames)) / replayOps
	r.values["wire.resp_bytes_per_batch"] = float64(len(respFrames)) / replayOps
	r.values["wire.encode_req_ns"] = encReq
	r.values["wire.decode_req_ns"] = decReq
	r.values["wire.encode_resp_ns"] = encResp
	r.values["wire.decode_resp_ns"] = decResp
	return nil
}

// --- ee ---

const windowAggSQL = "SELECT contestant_id, COUNT(*) FROM trending GROUP BY contestant_id ORDER BY COUNT(*) DESC, contestant_id LIMIT 3"

// eeReplay runs the four statement shapes the apps' procedures are made
// of through Executor.Execute, each in its own committed transaction as
// the partition would: the sensor app's INSERT…SELECT, point SELECT and
// point UPDATE, and the voter app's GROUP BY over the 100-row window.
func (r *run) eeReplay() error {
	ex := ee.NewExecutor(storage.NewCatalog())
	ctx := &ee.ExecCtx{}
	tx := txn.New(1)
	exec := func(sql string, params ...types.Value) error {
		ctx.Reset("", 1, tx, nil)
		if _, err := ex.Execute(sql, params, ctx); err != nil {
			return err
		}
		err := tx.Commit()
		tx.Reset(1)
		return err
	}
	for _, ddl := range []string{
		"CREATE TABLE rr (sensor BIGINT, value BIGINT)",
		"CREATE TABLE cr (sensor BIGINT, value BIGINT)",
		"CREATE TABLE averages (sensor BIGINT PRIMARY KEY, n BIGINT, total BIGINT)",
		"CREATE WINDOW trending (contestant_id BIGINT, ts BIGINT) SIZE 100 SLIDE 1",
		"INSERT INTO rr VALUES (1, 7)",
	} {
		if err := exec(ddl); err != nil {
			return err
		}
	}
	for s := int64(0); s < sensors; s++ {
		if err := exec("INSERT INTO averages VALUES (?, 1, ?)", types.NewInt(s), types.NewInt(sensorValue(s))); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(r.o.Seed))
	for i := int64(0); i < 100; i++ {
		if err := exec("INSERT INTO trending VALUES (?, ?)", types.NewInt(1+rng.Int63n(6)), types.NewInt(i)); err != nil {
			return err
		}
	}
	stmts := []struct {
		metric, sql string
		params      func() []types.Value
	}{
		{"ee.exec_ns.insert_select", "INSERT INTO cr SELECT sensor, value FROM rr WHERE value >= 0 AND value <= 1000", func() []types.Value { return nil }},
		{"ee.exec_ns.point_select", apps.SensorPointSelectSQL, func() []types.Value { return []types.Value{types.NewInt(rng.Int63n(sensors))} }},
		{"ee.exec_ns.point_update", apps.SensorPointUpdateSQL, func() []types.Value {
			return []types.Value{types.NewInt(7), types.NewInt(rng.Int63n(sensors))}
		}},
		{"ee.exec_ns.window_agg", windowAggSQL, func() []types.Value { return nil }},
	}
	for _, st := range stmts {
		ns, err := perOp(replayOps, func(int) error { return exec(st.sql, st.params()...) })
		if err != nil {
			return fmt.Errorf("%s: %w", st.metric, err)
		}
		r.values[st.metric] = ns
	}
	// Planning cost: the same four statements prepared from a cold
	// plan cache, as set-up pays once per statement.
	ns, err := perOp(replayOps/40, func(int) error {
		ex.InvalidatePlans()
		for _, st := range stmts {
			if _, err := ex.Prepare(st.sql); err != nil {
				return err
			}
		}
		return nil
	})
	r.values["ee.prepare_ns"] = ns / float64(len(stmts))
	return err
}

// --- storage ---

func (r *run) storageReplay() error {
	schema := types.MustSchema(
		types.Column{Name: "k", Kind: types.KindInt},
		types.Column{Name: "v", Kind: types.KindInt})
	plain := storage.NewTable("t", storage.KindTable, schema)
	ns, err := perOp(replayOps, func(i int) error {
		_, err := plain.Insert(types.Row{types.NewInt(int64(i)), types.NewInt(7)}, 0, nil)
		return err
	})
	if err != nil {
		return err
	}
	r.values["storage.insert_ns"] = ns
	win, err := storage.NewWindowTable("w", schema, storage.WindowSpec{Size: 100, Slide: 1})
	if err != nil {
		return err
	}
	if ns, err = perOp(replayOps, func(i int) error {
		_, err := win.Insert(types.Row{types.NewInt(int64(i % 6)), types.NewInt(int64(i))}, 0, nil)
		return err
	}); err != nil {
		return err
	}
	r.values["storage.window_insert_ns"] = ns
	cat := storage.NewCatalog()
	if err := cat.Create(plain); err != nil {
		return err
	}
	views := storage.NewViews(cat)
	if ns, err = perOp(replayOps, func(int) error {
		views.Pin().Close()
		return nil
	}); err != nil {
		return err
	}
	r.values["storage.view_pin_us"] = ns / 1e3
	return nil
}

// --- wal ---

// walReplay appends the workload's own border record to a LogSet in
// the run's state directory under the served policy (SyncGroup) and
// with no sync, and times a bare write+fsync of the same bytes there:
// the floor no logging change can go below on this disk.
func (r *run) walReplay() error {
	dir := filepath.Join(r.dir, "wal")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f := newFeed(r.o.Workload.App, r.o.Seed)
	rec := func(i int) *wal.Record {
		return &wal.Record{Kind: wal.KindBorder, SP: "Border", BatchID: int64(i + 1), Batch: []types.Row{f.next()}}
	}
	appendAll := func(name string, policy wal.SyncPolicy, n int) ([]float64, int64, error) {
		set, err := wal.OpenSet(wal.SetOptions{Path: filepath.Join(dir, name), Partitions: 1, Policy: policy})
		if err != nil {
			return nil, 0, err
		}
		us, err := eachOp(n, func(i int) error {
			_, err := set.Append(0, rec(i))
			return err
		})
		bytes := int64(set.Bytes())
		if cerr := set.Close(); err == nil {
			err = cerr
		}
		return us, bytes, err
	}
	const syncs = 200
	group, bytes, err := appendAll("group", wal.SyncGroup, syncs)
	if err != nil {
		return err
	}
	none, _, err := appendAll("none", wal.SyncNone, replayOps)
	if err != nil {
		return err
	}
	raw, err := os.OpenFile(filepath.Join(dir, "raw"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer raw.Close()
	buf := make([]byte, bytes/syncs)
	floor, err := eachOp(syncs, func(int) error {
		if _, err := raw.Write(buf); err != nil {
			return err
		}
		return raw.Sync()
	})
	if err != nil {
		return err
	}
	var noneSum float64
	for _, us := range none {
		noneSum += us
	}
	r.values["wal.append_p50_us"] = median(group)
	r.values["wal.append_none_ns"] = noneSum * 1e3 / float64(len(none))
	r.values["wal.fsync_floor_us"] = median(floor)
	return nil
}

// --- bufferpool / page ---

// poolReplay drives history-spill's access pattern — appends at the
// tail, lookups uniform over every row — against an archive table over
// a pool of the workload's budget, with the table five times the pool;
// then times pool hits, pool misses and raw block I/O on a file of its
// own.
func (r *run) poolReplay() error {
	dir := filepath.Join(r.dir, "pool")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	hist, err := LookupWorkload("history-spill")
	if err != nil {
		return err
	}
	pool := bufferpool.NewBudget(hist.ArchiveBudget)
	schema := types.MustSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "payload", Kind: types.KindText})
	tbl, err := storage.NewArchiveTable("h", schema, &storage.ArchiveSite{Pool: pool, Dir: dir, Tag: "p0"})
	if err != nil {
		return err
	}
	defer tbl.CloseArchive()
	f := newHistoryFeed(r.o.Seed)
	var tids []uint64
	insert := func() error {
		res, err := tbl.Insert(f.next(), 0, nil)
		tids = append(tids, res.TID)
		return err
	}
	for i := 0; i < hist.Preload; i++ {
		if err := insert(); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(r.o.Seed))
	before := pool.Stats()
	for i := 0; i < replayOps; i++ {
		if err := insert(); err != nil {
			return err
		}
		tid := tids[rng.Intn(len(tids))]
		if _, _, ok := tbl.Get(tid); !ok {
			return fmt.Errorf("archive row %d missing", tid)
		}
	}
	after := pool.Stats()
	ops := float64(2 * replayOps)
	hits, misses := float64(after.Hits-before.Hits), float64(after.Misses-before.Misses)
	r.values["bufferpool.hit_ratio"] = ratio(hits, hits+misses)
	r.values["bufferpool.evictions_per_kop"] = float64(after.Evictions-before.Evictions) / ops * 1e3
	r.values["bufferpool.writebacks_per_kop"] = float64(after.Writebacks-before.Writebacks) / ops * 1e3
	copyPath := filepath.Join(dir, "copy.pages")
	if err := tbl.ArchiveCheckpoint(copyPath); err != nil {
		return err
	}
	st, err := os.Stat(copyPath)
	if err != nil {
		return err
	}
	r.values["archive.disk_bytes_per_row"] = float64(st.Size()) / float64(len(tids))

	// A small pool over a file eight times its size: pinning the same
	// block always hits, walking the file in order always misses (LRU
	// evicts each block before the walk comes back to it).
	small := bufferpool.New(64)
	file, err := page.Create(filepath.Join(dir, "raw.pages"))
	if err != nil {
		return err
	}
	defer file.Close()
	blocks := 8 * small.Frames()
	for i := 0; i < blocks; i++ {
		_, fr, err := small.Append(file)
		if err != nil {
			return err
		}
		small.Unpin(fr, true)
	}
	if err := small.FlushFile(file); err != nil {
		return err
	}
	pin := func(b int) error {
		fr, err := small.Pin(file, page.BlockID(b))
		if err != nil {
			return err
		}
		small.Unpin(fr, false)
		return nil
	}
	hitNs, err := perOp(replayOps, func(int) error { return pin(0) })
	if err != nil {
		return err
	}
	missNs, err := perOp(replayOps/4, func(i int) error { return pin(i % blocks) })
	if err != nil {
		return err
	}
	var pg page.Page
	readNs, err := perOp(replayOps/4, func(i int) error { return file.ReadBlock(page.BlockID(i%blocks), &pg) })
	if err != nil {
		return err
	}
	writeNs, err := perOp(replayOps/4, func(i int) error { return file.WriteBlock(page.BlockID(i%blocks), &pg) })
	if err != nil {
		return err
	}
	r.values["bufferpool.pin_hit_ns"] = hitNs
	r.values["bufferpool.pin_miss_us"] = missNs / 1e3
	r.values["page.read_block_us"] = readNs / 1e3
	r.values["page.write_block_us"] = writeNs / 1e3
	return nil
}

// --- pe, in process ---

// snapshotSQL is the snapshot read the in-process run issues while
// writes saturate the partition (storage.read_under_write_us): each
// app's read op as a query, the voter's being the leaderboard itself.
var snapshotSQL = map[string]string{
	"sensor":  "SELECT n FROM averages WHERE sensor = 1",
	"voter":   apps.VoterReadSQL,
	"history": "SELECT id FROM arch_history WHERE id = 1",
}

// newEngine builds the workload's app on an engine embedded in this
// process, with the served run's options minus the log.
func (r *run) newEngine(opts pe.Options) (*pe.Engine, error) {
	app, err := apps.New(r.o.Workload.App, nil)
	if err != nil {
		return nil, err
	}
	opts.Partitions = 1
	opts.ArchiveMemoryBudget = r.o.Workload.ArchiveBudget
	eng, err := pe.NewEngine(opts)
	if err != nil {
		return nil, err
	}
	if err := app.Setup(eng); err != nil {
		eng.Close()
		return nil, err
	}
	return eng, nil
}

// peInproc runs the same app, input and closed loop with no TCP in
// between: Engine.IngestAsync straight from this process. What the
// served run adds on top of these numbers is the front door.
func (r *run) peInproc(dur time.Duration) error {
	w := r.o.Workload
	var base runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&base)
	eng, err := r.newEngine(pe.Options{ArchiveDir: filepath.Join(r.dir, "inproc")})
	if err != nil {
		return err
	}
	defer eng.Close()
	f := newFeed(w.App, r.o.Seed)
	var id int64
	ingest := func(rows []types.Row) (<-chan error, error) {
		id++
		return eng.IngestAsync(f.stream(), &stream.Batch{ID: id, Rows: rows})
	}
	for all := f.preload(w.Preload); len(all) > 0; {
		n := min(preloadBatch, len(all))
		ack, err := ingest(all[:n])
		if err != nil {
			return err
		}
		if err := <-ack; err != nil {
			return err
		}
		all = all[n:]
	}
	// closed is the closed loop, inflight deep, until done; it returns
	// when each batch was acknowledged.
	closed := func(done func(sent int, elapsed time.Duration) bool, each func(sent int)) ([]time.Duration, error) {
		var ring [inflight]<-chan error
		var ackAt []time.Duration
		head, n, sent := 0, 0, 0
		start := time.Now()
		reap := func() error {
			err := <-ring[head]
			head, n = (head+1)%inflight, n-1
			ackAt = append(ackAt, time.Since(start))
			f.acked()
			return err
		}
		for !done(sent, time.Since(start)) {
			if n == inflight {
				if err := reap(); err != nil {
					return nil, err
				}
			}
			ack, err := ingest([]types.Row{f.next()})
			if err != nil {
				return nil, err
			}
			ring[(head+n)%inflight] = ack
			n++
			sent++
			if each != nil {
				each(sent)
			}
		}
		for n > 0 {
			if err := reap(); err != nil {
				return nil, err
			}
		}
		return ackAt, nil
	}
	if _, err := closed(func(sent int, _ time.Duration) bool { return sent >= w.WarmBatches && f.steady() }, nil); err != nil {
		return err
	}

	// Snapshot reads off the partition loop while it is saturated.
	var readUs []float64
	var readErr error
	stopRead := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stopRead:
				return
			default:
			}
			start := time.Now()
			if _, err := eng.Read(0, snapshotSQL[w.App]); err != nil {
				readErr = err
				return
			}
			readUs = append(readUs, float64(time.Since(start).Nanoseconds())/1e3)
			sleepUntil(start.Add(time.Millisecond))
		}
	}()
	// Engine.Stats is exact (and race-free) only on a drained engine:
	// an ack means the border TE committed, the interior ones may still
	// be running.
	if err := eng.Drain(); err != nil {
		return err
	}
	var depths []float64
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	st0 := eng.Stats()
	ackAt, err := closed(func(_ int, el time.Duration) bool { return el >= dur }, func(sent int) {
		if sent%inflight == 0 {
			if d, err := eng.QueueDepth(0); err == nil {
				depths = append(depths, float64(d))
			}
		}
	})
	close(stopRead)
	readers.Wait()
	if err != nil {
		return err
	}
	if readErr != nil {
		return fmt.Errorf("in-process snapshot read: %w", readErr)
	}
	if err := eng.Drain(); err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	st1 := eng.Stats()
	batches := float64(len(ackAt))
	r.values["pe.inproc_batches_per_s"] = satRate(ackAt)
	r.values["pe.te_per_batch"] = float64(st1.Executed-st0.Executed) / batches
	r.values["pe.mallocs_per_batch"] = float64(ms1.Mallocs-ms0.Mallocs) / batches
	r.values["pe.alloc_bytes_per_batch"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / batches
	r.values["pe.queue_depth_p50"] = median(depths)
	r.values["pe.queue_depth_max"] = quantile(depths, 1)
	r.values["pe.aborted_share"] = ratio(float64(st1.Aborted-st0.Aborted), float64(st1.Executed-st0.Executed))
	r.values["pe.overloaded"] = float64(st1.Overloaded - st0.Overloaded)
	r.values["storage.read_under_write_us"] = median(readUs)

	// One batch at a time: the in-process counterpart of the paced
	// phase's ack latency.
	ackUs, err := eachOp(replayOps/10, func(int) error {
		ack, err := ingest([]types.Row{f.next()})
		if err != nil {
			return err
		}
		err = <-ack
		f.acked()
		return err
	})
	if err != nil {
		return err
	}
	r.values["pe.inproc_ack_p50_us"] = median(ackUs)
	if err := eng.Drain(); err != nil {
		return err
	}
	if err := eng.TriggerErr(); err != nil {
		return fmt.Errorf("in-process run: %w", err)
	}

	// Resident rows, and the heap the engine and its state hold per
	// row: live heap now against before the engine was built.
	tables, err := eng.Tables(0)
	if err != nil {
		return err
	}
	var rows float64
	for _, t := range tables {
		rows += float64(t.Rows)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	r.values["storage.rows_resident"] = rows
	r.values["storage.bytes_per_row"] = ratio(float64(ms1.HeapAlloc)-float64(base.HeapAlloc), rows)
	return nil
}

// --- recovery / checkpoint ---

// recoveryLayers measures what recovery_s is made of: an empty start,
// the fixed log's size and replay rate, and a checkpoint of the state
// the log rebuilds.
func (r *run) recoveryLayers() error {
	secs, logDir, err := r.measureRecovery(3)
	if err != nil {
		return err
	}
	recov := median(secs)
	emptyDir := filepath.Join(r.dir, "empty")
	srv, err := startServer(r.bin, r.serverOpts(emptyDir, "nosync"))
	if err != nil {
		return err
	}
	s, err := dialSession(srv.addr, newFeed(r.o.Workload.App, r.o.Seed))
	empty := time.Since(srv.start).Seconds()
	if err == nil {
		s.close()
	}
	srv.kill()
	if err != nil {
		return err
	}
	logPath := filepath.Join(logDir, "cmd")
	recs, err := wal.ReadSetMerged(logPath)
	if err != nil {
		return err
	}
	paths, err := wal.SetPaths(logPath)
	if err != nil {
		return err
	}
	var logBytes int64
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			return err
		}
		logBytes += st.Size()
	}
	r.values["recovery.recovery_s"] = recov
	r.values["recovery.empty_start_s"] = empty
	r.values["recovery.log_bytes"] = float64(logBytes)
	r.values["recovery.replay_records_per_s"] = ratio(float64(len(recs)), recov-empty)

	// Checkpoint the recovered state in process. This compacts the log,
	// so it comes after everything that reads it.
	snapDir := filepath.Join(r.dir, "ckpt")
	if err := os.MkdirAll(snapDir, 0o755); err != nil {
		return err
	}
	eng, err := r.newEngine(pe.Options{
		Recovery: recovery.ModeStrong, LogPath: logPath, LogPolicy: wal.SyncNone,
		SnapshotDir: snapDir, ArchiveDir: filepath.Join(r.dir, "ckpt-archive"),
	})
	if err != nil {
		return err
	}
	defer eng.Close()
	if err := eng.Recover(); err != nil {
		return err
	}
	start := time.Now()
	if err := eng.Checkpoint(); err != nil {
		return err
	}
	r.values["checkpoint.duration_s"] = time.Since(start).Seconds()
	n, err := dirBytes(snapDir)
	r.values["checkpoint.bytes"] = float64(n)
	return err
}
