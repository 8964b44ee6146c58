package spectrum

import (
	"fmt"
	"reflect"
	"testing"

	"addcrn/internal/netmodel"
	"addcrn/internal/rng"
	"addcrn/internal/sim"
)

// Node states of contractModel: the subset of the MAC's states the
// observer contract speaks about, and stListen, a node that acts on (logs)
// every busy and free transition and keeps both marks whatever its medium.
const (
	stIdle uint8 = iota
	stRunning
	stFrozen
	stAwaiting
	stTx
	stListen
)

// contractEvent is one logged step: a callback that acted ('B' freeze or
// listened busy, 'F' resume, transmit or listened free, 'A' handoff abort), a scripted node step ('S', with
// the state it led to) or a scripted BlockNode ('K') or UnblockNode ('U').
type contractEvent struct {
	what  byte
	node  int32
	ch    int
	state uint8
}

// contractModel is a miniature MAC over one medium per channel. Node v
// senses and transmits on channel v % C. It keeps the Tracker's observer
// contract — freeze on busy, resume or start transmitting (reentrantly) on
// free, abort on a primary arrival while transmitting — and logs every
// callback that acts. Over production Trackers it also writes the
// eligibility marks on every state change, as mac.setState does; the eager
// reference delivers everything, and the model ignores the callbacks that
// cannot act.
type contractModel struct {
	trs  []medium
	elig []Eligibility
	st   []uint8
	log  []contractEvent
	// suRows are the SU rows at the script's SU range, and listenBusy
	// counts the listening nodes that already sensed the medium busy when
	// an SU in range started: the busy walk must skip them.
	suRows     [][]int32
	listenBusy int
}

func (m *contractModel) ch(node int32) int { return int(node) % len(m.trs) }

func (m *contractModel) set(node int32, s uint8) {
	m.st[node] = s
	if m.elig != nil {
		m.elig[m.ch(node)].Set(node, s == stRunning || s == stListen, s == stFrozen || s == stAwaiting || s == stListen)
	}
}

func (m *contractModel) beginTx(node int32, now sim.Time) {
	m.set(node, stTx)
	c := m.ch(node)
	for _, v := range m.suRows[node] {
		if m.st[v] == stListen && m.ch(v) == c && m.trs[c].Busy(v) {
			m.listenBusy++
		}
	}
	m.trs[c].AddSUTransmitter(node, now)
}

// endTx releases the medium while node is still marked transmitting, then
// idles it, the order the MAC's endTx and abortTx use.
func (m *contractModel) endTx(node int32, now sim.Time) {
	m.trs[m.ch(node)].RemoveSUTransmitter(node, now)
	m.set(node, stIdle)
}

// chanObserver is contractModel's observer on channel c's tracker.
type chanObserver struct {
	m *contractModel
	c int
}

func (o chanObserver) SpectrumBusy(node int32, _ sim.Time) {
	m := o.m
	if m.ch(node) != o.c || m.st[node] != stRunning && m.st[node] != stListen {
		return
	}
	m.log = append(m.log, contractEvent{what: 'B', node: node, ch: o.c})
	if m.st[node] == stRunning {
		m.set(node, stFrozen)
	}
}

func (o chanObserver) SpectrumFree(node int32, now sim.Time) {
	m := o.m
	if m.ch(node) != o.c {
		return
	}
	switch m.st[node] {
	case stFrozen:
		m.log = append(m.log, contractEvent{what: 'F', node: node, ch: o.c})
		// A frozen backoff with time left resumes; one that had run out
		// transmits at once. Which one is a function of the history, so
		// both runs of a differential pair choose alike.
		if len(m.log)%3 != 0 {
			m.set(node, stRunning)
			return
		}
		m.beginTx(node, now)
	case stAwaiting:
		m.log = append(m.log, contractEvent{what: 'F', node: node, ch: o.c})
		m.beginTx(node, now)
	case stListen:
		m.log = append(m.log, contractEvent{what: 'F', node: node, ch: o.c})
	}
}

func (o chanObserver) PUArrived(node int32, now sim.Time) {
	m := o.m
	if m.ch(node) != o.c || m.st[node] != stTx {
		return
	}
	m.log = append(m.log, contractEvent{what: 'A', node: node, ch: o.c})
	m.endTx(node, now)
}

// contractRun is the observable outcome of one scripted run. covered[w]
// counts the free-eligible nodes a PU removal leaves covered by another
// active PU on that channel whose bit lies in puOn word w: the nodes the
// lazy free walk's cover mask skips. listenBusy is contractModel's.
type contractRun struct {
	log        []contractEvent
	counts     [][]int32
	states     []uint8
	covered    [2]int
	listenBusy int
}

// runContractScript plays ops on channels production Trackers over nw, or
// on as many eager references (ref). Each pair of bytes is one engine event:
// b0%4 == 0 toggles PU b1%N on channel b0/4%C (switching it on only when
// b0's top bit is set, so fewer than half the users are active); b0%8 == 1
// blocks node b1%n on channel b0/8%C when b0's top bit is set and the node
// holds fewer than two blocks there, and otherwise lifts one of its blocks
// (as fault bursts do); any other value advances node b1%n one step —
// contend (or, when b0's top two bits are set, start listening), expire,
// finish its transmission or stop listening.
func runContractScript(t testing.TB, nw *netmodel.Network, puRange, suRange float64, channels int, ref bool, ops []byte) contractRun {
	nn, np := nw.NumNodes(), len(nw.PU)
	m := &contractModel{st: make([]uint8, nn), suRows: bruteRows(nw, nw.SU, suRange)}
	for c := 0; c < channels; c++ {
		if ref {
			m.trs = append(m.trs, newEagerTracker(nw, puRange, suRange, chanObserver{m, c}))
			continue
		}
		tr, err := NewTracker(nw, puRange, suRange, chanObserver{m, c})
		if err != nil {
			t.Fatal(err)
		}
		m.trs = append(m.trs, tr)
		m.elig = append(m.elig, tr.Eligibility())
	}
	puOn := make([]bool, channels*np)
	blocks := make([]int8, channels*nn)
	puRows := bruteRows(nw, nw.PU, puRange)
	cover := make([][2]int, channels*nn) // active PUs per channel, node and puOn word
	var covered [2]int
	now := sim.Time(0)
	for k := 0; k+1 < len(ops); k += 2 {
		now++
		b0, b1 := ops[k], ops[k+1]
		if b0%4 == 0 {
			c := int(b0/4) % channels
			i := int32(int(b1) % np)
			switch on := &puOn[c*np+int(i)]; {
			case *on:
				*on = false
				for _, v := range puRows[i] {
					cv := &cover[c*nn+int(v)]
					cv[i>>6]--
					if s := m.st[v]; m.ch(v) == c && (s == stFrozen || s == stAwaiting) {
						for w, n := range cv {
							if n > 0 {
								covered[w]++
							}
						}
					}
				}
				m.trs[c].RemovePUTransmitter(i, now)
			case b0&0x80 != 0:
				*on = true
				for _, v := range puRows[i] {
					cover[c*nn+int(v)][i>>6]++
				}
				m.trs[c].AddPUTransmitter(i, now)
			}
			continue
		}
		v := int32(int(b1) % nn)
		if b0%8 == 1 {
			c := int(b0/8) % channels
			switch k := &blocks[c*nn+int(v)]; {
			case b0&0x80 != 0 && *k < 2:
				*k++
				m.log = append(m.log, contractEvent{what: 'K', node: v, ch: c})
				m.trs[c].BlockNode(v, now)
			case *k > 0:
				*k--
				m.log = append(m.log, contractEvent{what: 'U', node: v, ch: c})
				m.trs[c].UnblockNode(v, now)
			}
			continue
		}
		tr := m.trs[m.ch(v)]
		switch m.st[v] {
		case stIdle:
			if b0 >= 0xc0 {
				m.set(v, stListen)
			} else if tr.Busy(v) {
				m.set(v, stFrozen)
			} else {
				m.set(v, stRunning)
			}
		case stRunning:
			if tr.Busy(v) {
				m.set(v, stAwaiting)
			} else {
				m.beginTx(v, now)
			}
		case stTx:
			m.endTx(v, now)
		case stListen:
			m.set(v, stIdle)
		default:
			continue
		}
		m.log = append(m.log, contractEvent{what: 'S', node: v, ch: m.ch(v), state: m.st[v]})
	}
	run := contractRun{log: m.log, states: m.st, covered: covered, listenBusy: m.listenBusy}
	for _, tr := range m.trs {
		counts := make([]int32, nn)
		for v := range counts {
			counts[v] = tr.BusyCount(int32(v))
		}
		run.counts = append(run.counts, counts)
	}
	return run
}

// contractNetwork deploys the differential test's network with np primary
// users, and picks a PU range that leaves about half the nodes uncovered
// at the script's PU activity.
func contractNetwork(t testing.TB, np int, seed uint64) (*netmodel.Network, float64) {
	p := netmodel.ScaledDefaultParams()
	p.NumSU = 120
	p.Area = 70
	p.NumPU = np
	nw, err := netmodel.Deploy(p, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	if np > 64 {
		return nw, 6
	}
	return nw, 20
}

// checkLazyMatchesEager runs ops through production Trackers and through
// the eager reference, and requires the same acting callbacks in the same
// order, the same scripted outcomes and the same final busy counts.
func checkLazyMatchesEager(t testing.TB, np, channels int, seed uint64, ops []byte) contractRun {
	nw, puRange := contractNetwork(t, np, seed)
	const suRange = 15
	eager := runContractScript(t, nw, puRange, suRange, channels, true, ops)
	lazy := runContractScript(t, nw, puRange, suRange, channels, false, ops)
	for k := range min(len(eager.log), len(lazy.log)) {
		if eager.log[k] != lazy.log[k] {
			t.Fatalf("event %d: eager %+v, lazy %+v", k, eager.log[k], lazy.log[k])
		}
	}
	if len(eager.log) != len(lazy.log) {
		t.Fatalf("eager logged %d events, lazy %d", len(eager.log), len(lazy.log))
	}
	if !reflect.DeepEqual(eager.counts, lazy.counts) {
		t.Fatal("final busy counts diverge")
	}
	if !reflect.DeepEqual(eager.states, lazy.states) {
		t.Fatal("final node states diverge")
	}
	return eager
}

// TestLazyPathMatchesEager is the tracker-level differential test of the
// Tracker's lazy SU and PU accounting against the eager reference
// (eager_test.go): randomized add/remove and block/unblock scripts,
// with reentrant transmissions and handoff aborts inside the walks, at
// C ∈ {1, 4} and N ∈ {8, 100} (N = 100 needs two mask words per node).
// The scripts must reach every acting callback, the free walk's cover
// skip — a PU leaving while a free-eligible node in its row stays covered
// by another active PU, from each puOn word — and an SU starting next to a
// busy-eligible node whose medium is already busy.
func TestLazyPathMatchesEager(t *testing.T) {
	for _, channels := range []int{1, 4} {
		for _, np := range []int{8, 100} {
			t.Run(fmt.Sprintf("C%d_N%d", channels, np), func(t *testing.T) {
				kinds := map[byte]int{}
				var covered [2]int
				listenBusy := 0
				for seed := uint64(1); seed <= 3; seed++ {
					src := rng.New(seed)
					ops := make([]byte, 8000)
					for i := range ops {
						ops[i] = byte(src.Intn(256))
					}
					run := checkLazyMatchesEager(t, np, channels, seed, ops)
					for _, e := range run.log {
						kinds[e.what]++
					}
					covered[0] += run.covered[0]
					covered[1] += run.covered[1]
					listenBusy += run.listenBusy
				}
				for _, k := range []byte{'B', 'F', 'A', 'K', 'U'} {
					if kinds[k] == 0 {
						t.Fatalf("no %q events; the script is vacuous (%v)", k, kinds)
					}
				}
				if covered[0] == 0 || np > 64 && covered[1] == 0 {
					t.Fatalf("PU removals left %v free-eligible nodes covered by another PU per puOn word; the cover skip is untested", covered)
				}
				if listenBusy == 0 {
					t.Fatal("no SU started next to a listening node that already sensed busy; the busy walk's SU count is untested")
				}
			})
		}
	}
}

// TestFreeWalkBeforeAnyPU: an SU transmission can end before any PU has
// toggled, while the tracker holds no PU bitsets yet; its free walk must
// still resume the neighbor it froze.
func TestFreeWalkBeforeAnyPU(t *testing.T) {
	nw, puRange := contractNetwork(t, 8, 1)
	const suRange = 15
	obs := &countingObserver{}
	tr, err := NewTracker(nw, puRange, suRange, obs)
	if err != nil {
		t.Fatal(err)
	}
	rows := bruteRows(nw, nw.SU, suRange)
	v := int32(0)
	for len(rows[v]) < 2 {
		v++
	}
	u := rows[v][0]
	if u == v {
		u = rows[v][1]
	}
	tr.AddSUTransmitter(v, 0)
	elig := tr.Eligibility()
	elig.Set(u, false, true)
	tr.RemoveSUTransmitter(v, 1)
	if obs.free != 1 {
		t.Fatalf("ending %d's transmission delivered %d SpectrumFree, want 1 (to %d)", v, obs.free, u)
	}
}

// FuzzLazyPath runs the differential test on fuzzed scripts: cfg's low bit
// picks C ∈ {1, 4}, the next N ∈ {8, 100}, the rest the deployment.
func FuzzLazyPath(f *testing.F) {
	f.Add(uint8(0), []byte{0x80, 1, 1, 5, 2, 5, 0x80, 2, 3, 7, 0, 1})
	f.Add(uint8(3), []byte{0x84, 9, 1, 40, 2, 40, 0x80, 70, 3, 40, 0x84, 9})
	f.Add(uint8(1), []byte{2, 5, 3, 5, 0x89, 6, 2, 6, 3, 5, 0x81, 6, 9, 6, 3, 6})
	f.Fuzz(func(t *testing.T, cfg uint8, ops []byte) {
		channels, np := 1, 8
		if cfg&1 != 0 {
			channels = 4
		}
		if cfg&2 != 0 {
			np = 100
		}
		checkLazyMatchesEager(t, np, channels, uint64(cfg>>2)+1, ops)
	})
}
