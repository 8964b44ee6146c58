package fault

import (
	"math"
	"slices"
	"testing"
	"time"

	"addcrn/internal/geom"
	"addcrn/internal/netmodel"
	"addcrn/internal/rng"
	"addcrn/internal/sim"
)

func testNetwork(t testing.TB) *netmodel.Network {
	t.Helper()
	p := netmodel.ScaledDefaultParams()
	p.NumSU = 100
	p.Area = 60
	p.NumPU = 2
	nw, err := netmodel.DeployConnected(p, rng.New(7), 50)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestSpecZero(t *testing.T) {
	if !(Spec{}).Zero() {
		t.Error("zero spec not Zero")
	}
	if !(Spec{CrashWindow: time.Second, RetryCap: 3}).Zero() {
		t.Error("spec with only shape parameters should still be Zero")
	}
	for _, s := range []Spec{
		{CrashFrac: 0.1},
		{LinkLoss: 0.01},
		{AckLoss: 0.01},
		{Bursts: 1},
	} {
		if s.Zero() {
			t.Errorf("spec %+v reported Zero", s)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{CrashFrac: -0.1},
		{CrashFrac: 1.5},
		{LinkLoss: 2},
		{AckLoss: -1},
		{CrashWindow: -time.Second},
		{RecoverAfter: -time.Second},
		{Bursts: -1},
		{RetryCap: -1},
		{BurstRadius: -3},
		{CrashFrac: math.NaN()},
		{LinkLoss: math.NaN()},
		{AckLoss: math.NaN()},
		{BurstRadius: math.NaN()},
		{BurstRadius: math.Inf(1)},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %+v validated", s)
		}
	}
	good := Spec{CrashFrac: 0.2, LinkLoss: 0.05, AckLoss: 0.01, Bursts: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestCompileZeroSpecEmpty(t *testing.T) {
	nw := testNetwork(t)
	plan, err := Compile(Spec{}, nw, 40, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Events) != 0 || len(plan.Crashed) != 0 {
		t.Errorf("zero spec compiled %d events", len(plan.Events))
	}
}

func TestCompileDeterministic(t *testing.T) {
	nw := testNetwork(t)
	spec := Spec{CrashFrac: 0.15, RecoverAfter: 2 * time.Second, Bursts: 3, LinkLoss: 0.05}
	a, err := Compile(spec, nw, 40, rng.New(9).Child("fault/plan"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(spec, nw, 40, rng.New(9).Child("fault/plan"))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
	c, err := Compile(spec, nw, 40, rng.New(10).Child("fault/plan"))
	if err != nil {
		t.Fatal(err)
	}
	same := len(a.Events) == len(c.Events)
	if same {
		for i := range a.Events {
			if a.Events[i] != c.Events[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds compiled identical plans (suspicious)")
	}
}

func TestCompileShape(t *testing.T) {
	nw := testNetwork(t)
	spec := Spec{
		CrashFrac:    0.2,
		CrashWindow:  4 * time.Second,
		RecoverAfter: time.Second,
		Bursts:       2,
		BurstLen:     100 * time.Millisecond,
	}
	plan, err := Compile(spec, nw, 40, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	n := nw.NumNodes() - 1
	wantCrashes := int(spec.CrashFrac*float64(n) + 0.5)
	var crashes, recovers, starts, ends int
	seen := make(map[int32]bool)
	for i, ev := range plan.Events {
		if i > 0 && compareEvents(ev, plan.Events[i-1]) < 0 {
			t.Fatalf("events not sorted at %d", i)
		}
		switch ev.Kind {
		case EventCrash:
			crashes++
			if ev.Node <= 0 || int(ev.Node) > n {
				t.Errorf("crash victim %d out of range (base station is immune)", ev.Node)
			}
			if seen[ev.Node] {
				t.Errorf("node %d crashes twice", ev.Node)
			}
			seen[ev.Node] = true
			if ev.At <= 0 || ev.At > 4*1000*1000 {
				t.Errorf("crash time %v outside window", ev.At)
			}
		case EventRecover:
			recovers++
		case EventBurstStart:
			starts++
			if ev.Radius != 40 {
				t.Errorf("burst radius %v, want default 40", ev.Radius)
			}
			if !nw.Bounds().Contains(ev.Pos) {
				t.Errorf("burst position %v outside deployment", ev.Pos)
			}
		case EventBurstEnd:
			ends++
		}
	}
	if crashes != wantCrashes {
		t.Errorf("%d crash events, want %d", crashes, wantCrashes)
	}
	if recovers != crashes {
		t.Errorf("%d recover events for %d crashes", recovers, crashes)
	}
	if starts != 2 || ends != 2 {
		t.Errorf("burst events %d/%d, want 2/2", starts, ends)
	}
}

func TestCompileForeverCrashNoRecover(t *testing.T) {
	nw := testNetwork(t)
	plan, err := Compile(Spec{CrashFrac: 0.1}, nw, 40, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range plan.Events {
		if ev.Kind == EventRecover {
			t.Fatal("RecoverAfter=0 produced a recover event")
		}
	}
	if len(plan.Crashed) == 0 {
		t.Fatal("no crash victims for CrashFrac=0.1")
	}
}

func TestCompileRejectsInvalid(t *testing.T) {
	nw := testNetwork(t)
	if _, err := Compile(Spec{CrashFrac: 2}, nw, 40, rng.New(1)); err == nil {
		t.Error("invalid spec compiled")
	}
	if _, err := Compile(Spec{Bursts: 1}, nw, 0, rng.New(1)); err == nil {
		t.Error("burst with no radius and no default compiled")
	}
}

// FuzzFaultSpec feeds arbitrary field values through Validate and Compile
// on a small deployment. Neither may panic, Compile must accept exactly the
// specs Validate accepts (the default burst radius is positive), and an
// accepted spec must compile to a well-formed plan: events sorted by (time,
// kind, node); round(CrashFrac·n) distinct victims among the n SUs; one
// recovery per victim after its crash when RecoverAfter is at least the
// engine's microsecond tick, none otherwise; and every burst ending after it
// starts, with a finite positive radius. Bursts is an int8 because
// Compile's time and memory grow with it (two events per storm); the
// properties concern the plan's shape, not its size.
func FuzzFaultSpec(f *testing.F) {
	nw := testNetwork(f)
	f.Add(0.05, int64(500*time.Millisecond), int64(2*time.Second), 0.05, 0.02, 0, int8(2), int64(0), 0.0, uint64(1))
	f.Add(0.2, int64(4*time.Second), int64(time.Second), 0.0, 0.0, 3, int8(2), int64(100*time.Millisecond), 7.5, uint64(3))
	f.Add(1.0, int64(time.Microsecond), int64(500), 1.0, 1.0, 0, int8(0), int64(0), 0.0, uint64(5))
	f.Add(math.NaN(), int64(0), int64(0), 0.0, 0.0, 0, int8(0), int64(0), 0.0, uint64(1))
	f.Add(0.0, int64(0), int64(0), 0.0, 0.0, 0, int8(1), int64(-1), math.Inf(1), uint64(1))
	f.Fuzz(func(t *testing.T, crashFrac float64, crashWindow, recoverAfter int64, linkLoss, ackLoss float64,
		retryCap int, bursts int8, burstLen int64, burstRadius float64, seed uint64) {
		spec := Spec{
			CrashFrac:    crashFrac,
			CrashWindow:  time.Duration(crashWindow),
			RecoverAfter: time.Duration(recoverAfter),
			LinkLoss:     linkLoss,
			AckLoss:      ackLoss,
			RetryCap:     retryCap,
			Bursts:       int(bursts),
			BurstLen:     time.Duration(burstLen),
			BurstRadius:  burstRadius,
		}
		verr := spec.Validate()
		plan, err := Compile(spec, nw, 40, rng.New(seed))
		if (verr == nil) != (err == nil) {
			t.Fatalf("Validate error %v but Compile error %v for %+v", verr, err, spec)
		}
		if err != nil {
			return
		}

		n := nw.NumNodes() - 1
		crashAt := map[int32]int64{}
		recovered := map[int32]bool{}
		startAt := map[[2]float64]int64{}
		var ends int
		for i, ev := range plan.Events {
			if i > 0 {
				p := plan.Events[i-1]
				if ev.At < p.At || ev.At == p.At && (ev.Kind < p.Kind || ev.Kind == p.Kind && ev.Node < p.Node) {
					t.Fatalf("events %d and %d out of order: %+v, %+v", i-1, i, p, ev)
				}
			}
			switch ev.Kind {
			case EventCrash:
				if ev.Node < 1 || int(ev.Node) > n {
					t.Fatalf("crash victim %d outside 1..%d", ev.Node, n)
				}
				if _, dup := crashAt[ev.Node]; dup {
					t.Fatalf("node %d crashes twice", ev.Node)
				}
				crashAt[ev.Node] = int64(ev.At)
			case EventRecover:
				at, ok := crashAt[ev.Node]
				if !ok || int64(ev.At) <= at || recovered[ev.Node] {
					t.Fatalf("recovery of node %d at %v does not follow its one crash", ev.Node, ev.At)
				}
				recovered[ev.Node] = true
			case EventBurstStart, EventBurstEnd:
				if !(ev.Radius > 0 && ev.Radius <= math.MaxFloat64) {
					t.Fatalf("burst radius %v is not finite and positive", ev.Radius)
				}
				key := [2]float64{ev.Pos.X, ev.Pos.Y}
				if ev.Kind == EventBurstStart {
					startAt[key] = int64(ev.At)
				} else if at, ok := startAt[key]; !ok || int64(ev.At) <= at {
					t.Fatalf("burst at %v ends at %v before it starts", ev.Pos, ev.At)
				} else {
					ends++
				}
			default:
				t.Fatalf("unknown event kind %v", ev.Kind)
			}
		}
		victims := len(crashAt)
		if victims != len(plan.Crashed) || victims > n || math.Abs(float64(victims)-spec.CrashFrac*float64(n)) > 0.5+1e-9 {
			t.Fatalf("%d victims (%d listed) for CrashFrac %v over %d SUs", victims, len(plan.Crashed), spec.CrashFrac, n)
		}
		wantRecoveries := 0
		if spec.RecoverAfter >= time.Microsecond {
			wantRecoveries = victims
		}
		if len(recovered) != wantRecoveries {
			t.Fatalf("%d recoveries, want %d", len(recovered), wantRecoveries)
		}
		if ends != spec.Bursts {
			t.Fatalf("%d complete bursts, want %d", ends, spec.Bursts)
		}
	})
}

// insertionSortEvents is the plan sort Compile used before it switched to
// slices.SortStableFunc: quadratic, but obviously stable and ordered by
// (time, kind, node). It stays here as the reference the new sort must match.
func insertionSortEvents(evs []Event) {
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && compareEvents(evs[j], evs[j-1]) < 0; j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
}

// TestSortMatchesInsertionSort: on random plans dense in ties — including
// events equal on (time, kind, node) that differ only in position — the
// stable sort yields exactly the insertion sort's slice, so compiled plans
// are unchanged.
func TestSortMatchesInsertionSort(t *testing.T) {
	src := rng.New(11)
	for trial := 0; trial < 200; trial++ {
		evs := make([]Event, src.UniformInt(0, 300))
		for i := range evs {
			evs[i] = Event{
				At:   sim.Time(src.UniformInt(0, 20)),
				Kind: EventKind(src.UniformInt(1, 4)),
				Node: int32(src.UniformInt(-1, 4)),
				Pos:  geom.Point{X: float64(i)},
			}
		}
		want := slices.Clone(evs)
		insertionSortEvents(want)
		slices.SortStableFunc(evs, compareEvents)
		if !slices.Equal(evs, want) {
			t.Fatalf("trial %d: stable sort differs from insertion sort", trial)
		}
	}
}
