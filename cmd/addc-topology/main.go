// Command addc-topology generates, inspects, and renders cognitive radio
// network deployments:
//
//	addc-topology gen -n 300 -N 8 -seed 1 -o topo.json     # deploy & save
//	addc-topology info topo.json                           # stats + CDS
//	addc-topology svg topo.json -o topo.svg                # Fig. 2 render
package main

import (
	"flag"
	"fmt"
	"os"

	"addcrn/internal/cds"
	"addcrn/internal/core"
	"addcrn/internal/netmodel"
	"addcrn/internal/pcr"
	"addcrn/internal/rng"
	"addcrn/internal/theory"
	"addcrn/internal/viz"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "addc-topology:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: addc-topology gen|info|svg [flags]")
	}
	switch args[0] {
	case "gen":
		return runGen(args[1:])
	case "info":
		return runInfo(args[1:])
	case "svg":
		return runSVG(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q (want gen, info or svg)", args[0])
	}
}

func runGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	base := netmodel.ScaledDefaultParams()
	var (
		n    = fs.Int("n", base.NumSU, "number of SUs")
		numN = fs.Int("N", base.NumPU, "number of PUs")
		area = fs.Float64("area", base.Area, "square side (m)")
		seed = fs.Uint64("seed", 1, "seed")
		out  = fs.String("o", "", "output file (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	p := base
	p.NumSU = *n
	p.NumPU = *numN
	p.Area = *area
	nw, err := netmodel.DeployConnected(p, rng.New(*seed), netmodel.DeployAttempts)
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return netmodel.WriteTopology(w, nw)
}

func loadTopology(path string) (*netmodel.Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return netmodel.ReadTopology(f)
}

func runInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: addc-topology info <topo.json>")
	}
	nw, err := loadTopology(fs.Arg(0))
	if err != nil {
		return err
	}
	adj := nw.Adjacency()
	consts, err := pcr.Compute(nw.Params)
	if err != nil {
		return err
	}
	bounds, err := theory.ComputeBounds(nw.Params)
	if err != nil {
		return err
	}
	fmt.Printf("area %gx%g, n=%d SUs, N=%d PUs\n", nw.Params.Area, nw.Params.Area,
		nw.Params.NumSU, nw.Params.NumPU)
	fmt.Printf("graph: %d edges, max degree %d, connected=%v\n",
		adj.NumEdges(), adj.MaxDegree(), adj.Connected())
	fmt.Printf("PCR: kappa=%.3f range=%.1fm  p_o=%.4f\n",
		consts.Kappa, consts.Range, bounds.OpportunityProb)
	tree, err := cds.Build(adj, netmodel.BaseStationID)
	if err != nil {
		return err
	}
	st := tree.ComputeStats(adj)
	fmt.Printf("CDS tree: %d dominators, %d connectors, %d dominatees, depth %d, max degree %d\n",
		st.NumDominators, st.NumConnectors, st.NumDominatees, st.Depth, st.MaxDegree)
	fmt.Printf("Lemma 1 check: max connectors adjacent to a dominator = %d (bound 12)\n",
		st.MaxConnectorAdj)
	fmt.Printf("Lemma 6 check: realized Delta = %d (bound %.1f)\n", st.MaxDegree, bounds.DeltaBound)
	return nil
}

func runSVG(args []string) error {
	fs := flag.NewFlagSet("svg", flag.ContinueOnError)
	out := fs.String("o", "", "output SVG file (default stdout)")
	size := fs.Int("size", 700, "image size in pixels")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: addc-topology svg [-o out.svg] <topo.json>")
	}
	nw, err := loadTopology(fs.Arg(0))
	if err != nil {
		return err
	}
	tree, err := core.BuildTree(nw)
	if err != nil {
		return err
	}
	svg := viz.TopologySVG(nw, tree, *size)
	if *out == "" {
		fmt.Println(svg)
		return nil
	}
	return os.WriteFile(*out, []byte(svg), 0o644)
}
