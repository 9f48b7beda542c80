package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"sstore"
	"sstore/bench/apps"
	"sstore/client"
	"sstore/internal/leaderboard"
	"sstore/internal/types"
)

// feed is one application's seeded input and its reference model. The
// generator draws every input from it, so the server sees inputs only;
// the model says what the server must answer. next and preload are
// called from the sending goroutine, acked from the goroutine that
// receives acks (in ack order — one partition acks in admission
// order), read from the reader goroutine; the fields those share are
// atomic.
type feed interface {
	// stream is the border stream batches are ingested into.
	stream() string
	// preload returns the rows loaded before the run in 500-row
	// batches, already applied to the model.
	preload(rows int) []sstore.Row
	// next returns the next one-row batch, applied to the model as
	// sent.
	next() sstore.Row
	// acked records that the oldest unacknowledged batch committed.
	acked()
	// steady reports whether the sent input has brought the model into
	// the regime the measured phases assume; the warm-up runs until it
	// has.
	steady() bool
	// read issues the workload's read op and checks the answer against
	// what the model allows at this moment. exact says every sent batch
	// has been acknowledged, so the answer must match the model
	// exactly.
	read(c *client.Client, exact bool) error
	// verify is the end-of-run oracle, called on a drained server.
	verify(c *client.Client) error
	// corrupt shifts the model's expected count by one, so a test can
	// show the oracle notices a dropped or double-applied batch.
	corrupt()
}

func newFeed(app string, seed int64) feed {
	switch app {
	case "sensor":
		return newSensorFeed(seed)
	case "voter":
		return newVoterFeed(seed)
	case "history":
		return newHistoryFeed(seed)
	}
	panic("bench: no feed for app " + app)
}

// --- sensor ---

const sensors = 1000

// sensorFeed sends (sensor, value) readings. A sensor always reports
// the same in-range value, so Report's average is known; one reading in
// 64 is out of range and must be dropped by Clean.
type sensorFeed struct {
	rng, rrng *rand.Rand
	sent, ack [sensors]atomic.Int64 // valid readings per sensor
	// pending holds the sensor of each sent, unacknowledged reading (-1
	// for an out-of-range one). Capacity: the paced phase's whole input,
	// so the sender never waits on the ack side.
	pending chan int32
}

func newSensorFeed(seed int64) *sensorFeed {
	return &sensorFeed{
		rng:     rand.New(rand.NewSource(seed)),
		rrng:    rand.New(rand.NewSource(seed ^ 0x5eed)),
		pending: make(chan int32, 1<<17),
	}
}

func sensorValue(s int64) int64 { return (s * 7) % 1001 }

func (f *sensorFeed) stream() string { return apps.SensorStream }
func (f *sensorFeed) steady() bool   { return true }
func (f *sensorFeed) corrupt()       { f.ack[0].Add(1); f.sent[0].Add(1) }

func (f *sensorFeed) preload(rows int) []sstore.Row {
	out := make([]sstore.Row, rows)
	for i := range out {
		s := int64(i % sensors)
		out[i] = sstore.Row{sstore.Int(s), sstore.Int(sensorValue(s))}
		f.sent[s].Add(1)
		f.ack[s].Add(1)
	}
	return out
}

func (f *sensorFeed) next() sstore.Row {
	s := f.rng.Int63n(sensors)
	if f.rng.Intn(64) == 0 {
		f.pending <- -1
		return sstore.Row{sstore.Int(s), sstore.Int(-1)}
	}
	f.sent[s].Add(1)
	f.pending <- int32(s)
	return sstore.Row{sstore.Int(s), sstore.Int(sensorValue(s))}
}

func (f *sensorFeed) acked() {
	if s := <-f.pending; s >= 0 {
		f.ack[s].Add(1)
	}
}

func (f *sensorFeed) read(c *client.Client, exact bool) error {
	return f.report(c, f.rrng.Int63n(sensors), exact)
}

// report checks Report(s): the count lies between the readings
// acknowledged before the call and those sent by its return.
func (f *sensorFeed) report(c *client.Client, s int64, exact bool) error {
	lo := f.ack[s].Load()
	res, err := c.Call(apps.SensorRead, sstore.Int(s))
	if err != nil {
		return err
	}
	hi := f.sent[s].Load()
	if exact {
		lo = hi
	}
	if len(res.Rows) == 0 {
		if lo == 0 {
			return nil
		}
		return fmt.Errorf("Report(%d): no row, want n in [%d,%d]", s, lo, hi)
	}
	r := res.Rows[0]
	if n := r[2].Int(); n < lo || n > hi {
		return fmt.Errorf("Report(%d): n=%d, want [%d,%d]", s, n, lo, hi)
	}
	if avg := r[1].Int(); avg != sensorValue(s) {
		return fmt.Errorf("Report(%d): avg=%d, want %d", s, avg, sensorValue(s))
	}
	return nil
}

// verify: Σ averages.n equals the in-range readings acknowledged,
// sensor by sensor, read in one snapshot query (a thousand Report calls
// would each wait for a group commit on the logging workload).
func (f *sensorFeed) verify(c *client.Client) error {
	res, err := c.Query(0, "SELECT sensor, n, total FROM averages")
	if err != nil {
		return err
	}
	got := make(map[int64]int64, sensors)
	for _, r := range res.Rows {
		s, n := r[0].Int(), r[1].Int()
		if r[2].Int() != n*sensorValue(s) {
			return fmt.Errorf("sensor %d: total %d over %d readings of %d", s, r[2].Int(), n, sensorValue(s))
		}
		got[s] = n
	}
	for s := int64(0); s < sensors; s++ {
		if f.ack[s].Load() != f.sent[s].Load() {
			return fmt.Errorf("sensor %d: %d readings sent, %d acknowledged", s, f.sent[s].Load(), f.ack[s].Load())
		}
		if got[s] != f.ack[s].Load() {
			return fmt.Errorf("sensor %d: %d readings aggregated, %d acknowledged", s, got[s], f.ack[s].Load())
		}
	}
	return nil
}

// --- voter ---

// voterFeed generates votes and runs the leaderboard's three
// procedures as a reference state machine. Votes go to contestants
// that are still active (weight ∝ id, as leaderboard.Generator skews
// them) and reuse an earlier phone number with the same 2 % rate, so
// after the five eliminations of the first ~5100 votes the workload is
// stationary: every vote runs Validate and Maintain in full and every
// 1000th fires DeleteLowest, which finds a single contestant left.
type voterFeed struct {
	// mu guards the model: next runs on the sending goroutine, read's
	// exact comparison on the reader's.
	mu        sync.Mutex
	rng       *rand.Rand
	cfg       voterCfg
	nextPhone int64
	clock     int64

	active   []bool
	total    []int64
	voted    map[int64]int // phone → contestant, the votes table
	counter  int64         // vote_counter.n
	window   []int         // contestants of the last cfg.window valid votes, oldest first
	sinceCut int           // valid votes since the last elimination
	extra    int           // corrupt()'s offset on the expected votes count

	isSteady atomic.Bool
}

type voterCfg struct {
	contestants, window, topK int
	deleteEvery               int64
}

const (
	voterFirstPhone = 1_000_000
	voterDupRate    = 0.02
)

func newVoterFeed(seed int64) *voterFeed {
	// The leaderboard package's defaults, which apps.VoterConfig
	// (the zero Config) selects.
	cfg := voterCfg{contestants: 6, window: 100, topK: 3, deleteEvery: 1000}
	f := &voterFeed{
		rng: rand.New(rand.NewSource(seed)), cfg: cfg, nextPhone: voterFirstPhone,
		active: make([]bool, cfg.contestants+1), total: make([]int64, cfg.contestants+1),
		voted: make(map[int64]int),
	}
	for i := 1; i <= cfg.contestants; i++ {
		f.active[i] = true
	}
	return f
}

func (f *voterFeed) stream() string { return apps.VoterStream }
func (f *voterFeed) steady() bool   { return f.isSteady.Load() }
func (f *voterFeed) acked()         {}
func (f *voterFeed) corrupt()       { f.extra++ }

// preload: voter-hybrid is never preloaded. A multi-row batch validates
// all its votes before any of them can trigger an elimination, which
// this vote-by-vote model does not mirror; the warm-up plays the
// eliminations out one vote a batch instead.
func (f *voterFeed) preload(rows int) []sstore.Row {
	if rows != 0 {
		panic("bench: the voter feed cannot be preloaded")
	}
	return nil
}

func (f *voterFeed) next() sstore.Row {
	f.mu.Lock()
	defer f.mu.Unlock()
	var phone int64
	if f.rng.Float64() < voterDupRate && f.nextPhone > voterFirstPhone {
		phone = voterFirstPhone + f.rng.Int63n(f.nextPhone-voterFirstPhone)
	} else {
		phone = f.nextPhone
		f.nextPhone++
	}
	weight := 0
	for c := 1; c <= f.cfg.contestants; c++ {
		if f.active[c] {
			weight += c
		}
	}
	pick, cand := f.rng.Intn(weight), 0
	for c := 1; c <= f.cfg.contestants; c++ {
		if !f.active[c] {
			continue
		}
		if pick < c {
			cand = c
			break
		}
		pick -= c
	}
	f.clock += 1000
	f.apply(phone, cand)
	return sstore.Row{sstore.Int(phone), sstore.Int(int64(cand)), sstore.Int(f.clock)}
}

// apply is Validate → Maintain → DeleteLowest on the model.
func (f *voterFeed) apply(phone int64, cand int) {
	if _, dup := f.voted[phone]; dup || !f.active[cand] {
		return
	}
	f.voted[phone] = cand
	f.total[cand]++
	f.window = append(f.window, cand)
	if len(f.window) > f.cfg.window {
		f.window = f.window[1:]
	}
	f.sinceCut++
	f.counter++
	if f.counter%f.cfg.deleteEvery == 0 {
		f.deleteLowest()
	}
	if f.activeCount() == 1 && f.sinceCut >= f.cfg.window {
		f.isSteady.Store(true)
	}
}

func (f *voterFeed) activeCount() int {
	n := 0
	for _, a := range f.active {
		if a {
			n++
		}
	}
	return n
}

func (f *voterFeed) deleteLowest() {
	if f.activeCount() <= 1 {
		return
	}
	loser := 0
	for c := 1; c <= f.cfg.contestants; c++ {
		if f.active[c] && (loser == 0 || f.total[c] < f.total[loser]) {
			loser = c
		}
	}
	f.active[loser] = false
	for phone, c := range f.voted {
		if c == loser {
			delete(f.voted, phone)
		}
	}
	f.sinceCut = 0
}

// trend is the model's leaderboard_trend: the window's top-K
// contestants by count, ties by id.
func (f *voterFeed) trend() [][2]int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	counts := make(map[int]int64)
	for _, c := range f.window {
		counts[c]++
	}
	var out [][2]int64
	for c, n := range counts {
		out = append(out, [2]int64{int64(c), n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][1] != out[j][1] {
			return out[i][1] > out[j][1]
		}
		return out[i][0] < out[j][0]
	})
	if len(out) > f.cfg.topK {
		out = out[:f.cfg.topK]
	}
	return out
}

// read queries leaderboard_trend through the snapshot read path. A
// snapshot is one commit boundary, so the board is never seen cleared
// and never holds more than the window; with everything acknowledged
// it equals the model's.
func (f *voterFeed) read(c *client.Client, exact bool) error {
	res, err := c.Query(0, apps.VoterReadSQL)
	if err != nil {
		return err
	}
	var sum int64
	for _, r := range res.Rows {
		if id := r[0].Int(); id < 1 || id > int64(f.cfg.contestants) {
			return fmt.Errorf("leaderboard_trend: contestant %d out of range", id)
		}
		sum += r[1].Int()
	}
	if len(res.Rows) > f.cfg.topK || sum > int64(f.cfg.window) {
		return fmt.Errorf("leaderboard_trend: %d rows summing to %d votes", len(res.Rows), sum)
	}
	if !exact {
		return nil
	}
	want := f.trend()
	if len(res.Rows) != len(want) {
		return fmt.Errorf("leaderboard_trend: %d rows, want %d", len(res.Rows), len(want))
	}
	for i, r := range res.Rows {
		if r[0].Int() != want[i][0] || r[1].Int() != want[i][1] {
			return fmt.Errorf("leaderboard_trend[%d] = (%d,%d), want %v", i, r[0].Int(), r[1].Int(), want[i])
		}
	}
	return nil
}

// verify: the votes table holds exactly the model's votes (first-seen
// phones of active contestants), the counter agrees, the board matches,
// and the package's own cross-table invariant holds.
func (f *voterFeed) verify(c *client.Client) error {
	count := func(sql string) (int64, error) {
		res, err := c.Query(0, sql)
		if err != nil {
			return 0, err
		}
		if len(res.Rows) != 1 {
			return 0, fmt.Errorf("%s: %d rows", sql, len(res.Rows))
		}
		return res.Rows[0][0].Int(), nil
	}
	if n, err := count("SELECT COUNT(*) FROM votes"); err != nil {
		return err
	} else if want := int64(len(f.voted) + f.extra); n != want {
		return fmt.Errorf("votes recorded: %d, want %d", n, want)
	}
	if n, err := count("SELECT n FROM vote_counter"); err != nil {
		return err
	} else if n != f.counter {
		return fmt.Errorf("vote_counter: %d, want %d", n, f.counter)
	}
	if err := f.read(c, true); err != nil {
		return err
	}
	return leaderboard.Validate(func(sql string, params ...types.Value) (*leaderboard.QueryRows, error) {
		res, err := c.Query(0, sql, params...)
		if err != nil {
			return nil, err
		}
		return &leaderboard.QueryRows{Rows: res.Rows}, nil
	})
}

// --- history ---

const historyPayloads = 64

// historyFeed appends (id, payload) rows with consecutive ids; a row is
// about 256 bytes. payload is one of 64 seeded strings chosen by id, so
// a Lookup's answer is checkable without keeping the rows.
type historyFeed struct {
	rrng     *rand.Rand
	payloads [historyPayloads]string
	sentRows int64
	visible  atomic.Int64 // rows acknowledged (preload included)
	extra    int64
}

func newHistoryFeed(seed int64) *historyFeed {
	rng := rand.New(rand.NewSource(seed))
	f := &historyFeed{rrng: rand.New(rand.NewSource(seed ^ 0x5eed))}
	for i := range f.payloads {
		var b strings.Builder
		for b.Len() < 240 {
			fmt.Fprintf(&b, "%016x", rng.Uint64())
		}
		f.payloads[i] = b.String()
	}
	return f
}

func (f *historyFeed) stream() string { return apps.HistoryStream }
func (f *historyFeed) steady() bool   { return true }
func (f *historyFeed) acked()         { f.visible.Add(1) }
func (f *historyFeed) corrupt()       { f.extra++ }

func (f *historyFeed) row(id int64) sstore.Row {
	return sstore.Row{sstore.Int(id), sstore.Text(f.payloads[id%historyPayloads])}
}

func (f *historyFeed) preload(rows int) []sstore.Row {
	out := make([]sstore.Row, rows)
	for i := range out {
		out[i] = f.next()
	}
	f.visible.Add(int64(rows))
	return out
}

func (f *historyFeed) next() sstore.Row {
	r := f.row(f.sentRows)
	f.sentRows++
	return r
}

// read probes a uniformly chosen acknowledged id: with the table
// several times the pool, most probes miss it.
func (f *historyFeed) read(c *client.Client, _ bool) error {
	n := f.visible.Load()
	if n == 0 {
		return nil
	}
	id := f.rrng.Int63n(n)
	res, err := c.Call(apps.HistoryRead, sstore.Int(id))
	if err != nil {
		return err
	}
	if len(res.Rows) != 1 {
		return fmt.Errorf("Lookup(%d): %d rows", id, len(res.Rows))
	}
	if got := res.Rows[0]; got[0].Int() != id || got[1].Text() != f.payloads[id%historyPayloads] {
		return fmt.Errorf("Lookup(%d): wrong row", id)
	}
	return nil
}

// verify: COUNT(*) equals preload plus acknowledged appends. Ids are
// the primary key, so a double-applied batch would have failed its own
// ingest with a key collision.
func (f *historyFeed) verify(c *client.Client) error {
	res, err := c.Call(apps.HistoryCount)
	if err != nil {
		return err
	}
	if f.visible.Load() != f.sentRows {
		return fmt.Errorf("history: %d rows sent, %d acknowledged", f.sentRows, f.visible.Load())
	}
	if n, want := res.Rows[0][0].Int(), f.sentRows+f.extra; n != want {
		return fmt.Errorf("history COUNT(*): %d, want %d", n, want)
	}
	return nil
}
