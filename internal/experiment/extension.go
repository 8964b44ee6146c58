package experiment

import (
	"time"

	"addcrn/internal/core"
	"addcrn/internal/fault"
	"addcrn/internal/multichannel"
	"addcrn/internal/netmodel"
)

// The extension figures go beyond the paper's evaluation (see DESIGN.md
// Extensions): ext1 sweeps the number of licensed channels C under the
// receiver-addressed multichannel model, ext2 the fraction of SUs that
// crash. Both are ordinary sweeps — same seeds, topology, journal, shards
// and failure handling as Fig. 6 — except that each pair runs ADDC alone
// and x configures that run's CollectConfig instead of the parameters.

// extensionLinkLoss and extensionCrashWindow are ext2's fixed fault floor:
// every point loses 5% of frames, and crashes land in the first virtual
// second, while packets are still in flight.
const (
	extensionLinkLoss    = 0.05
	extensionCrashWindow = time.Second
)

// crashFaults is ext2's fault spec at crash fraction x.
func crashFaults(x float64) *fault.Spec {
	return &fault.Spec{CrashFrac: x, LinkLoss: extensionLinkLoss, CrashWindow: extensionCrashWindow}
}

// extensionSweep fills in ext1 or ext2; it reports false for any other id.
func extensionSweep(s *Sweep, id string) bool {
	switch id {
	case "ext1":
		s.Title = "ADDC delay vs number of licensed channels (extension ext1)"
		s.XLabel = "channels"
		s.axis = axisChannels
		s.Xs = []float64{1, 2, 3, 4, 6, 8}
		s.configure = func(cfg *core.CollectConfig, nw *netmodel.Network, x float64) error {
			home, err := multichannel.HomeChannels(nw, int(x), multichannel.AssignLeastPU)
			if err != nil {
				return err
			}
			cfg.Channels, cfg.Home = int(x), home
			return nil
		}
	case "ext2":
		s.Title = "ADDC delivery ratio vs SU crash fraction (extension ext2)"
		s.XLabel = "crash-frac"
		s.axis = axisCrashFrac
		s.Xs = []float64{0, 0.05, 0.10, 0.20, 0.30}
		s.configure = func(cfg *core.CollectConfig, _ *netmodel.Network, x float64) error {
			cfg.Faults = crashFaults(x)
			return nil
		}
	default:
		return false
	}
	s.Apply = func(p netmodel.Params, _ float64) netmodel.Params { return p }
	return true
}
