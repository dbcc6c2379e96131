// Command frontier-top prints TOP500/Green500/HPCG-style submission
// lines for the simulated machines — the June 2022 debut the paper's
// §5.1 celebrates: Frontier #1 on both lists at once.
//
// Usage:
//
//	frontier-top [-nodes N]
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"frontiersim/internal/machine"
	"frontiersim/internal/power"
	"frontiersim/internal/units"
)

func main() {
	nodes := flag.Int("nodes", 0, "Frontier nodes in the run (0 = all)")
	flag.Parse()

	frontier, errF := machine.Frontier().HPLSpec()
	frontierPower, errP := machine.Frontier().PowerMachine()
	summit, errS := machine.Summit().HPLSpec()
	if err := errors.Join(errF, errP, errS); err != nil {
		fmt.Fprintln(os.Stderr, "frontier-top:", err)
		os.Exit(1)
	}

	n := *nodes
	if n == 0 || n > frontier.Nodes {
		n = frontier.Nodes
	}

	fmt.Printf("%-10s %8s %12s %12s %12s %10s %10s\n",
		"system", "nodes", "Rpeak", "Rmax (HPL)", "HPCG", "power", "GF/W")
	row := func(name string, nodes int, rpeak, rmax, hpcg units.Flops, w units.Watts) {
		fmt.Printf("%-10s %8d %12s %12s %12s %10s %10.1f\n",
			name, nodes, rpeak, rmax, hpcg, w, power.Efficiency(rmax, w)/1e9)
	}
	fw := frontierPower.SystemHPL(n)
	row("frontier", n, frontier.RPeak(), frontier.HPLRmax(n), frontier.HPCG(n), fw)
	// Summit at ~10 MW (its TOP500 submission).
	row("summit", summit.Nodes, summit.RPeak(),
		summit.HPLRmax(summit.Nodes), summit.HPCG(summit.Nodes),
		10.1*units.Megawatt)

	fmt.Printf("\nHPL run plan on %d nodes: N = %.1fM, ~%v at ~%s\n",
		n, float64(frontier.HPLProblemSize(n, 0.85))/1e6,
		frontier.HPLRunTime(n, 0.85), fw)
	fmt.Printf("the 2008 exascale report's targets: 50 GF/W, 20 MW/EF — Frontier: %.1f GF/W, %.1f MW/EF\n",
		power.Efficiency(frontier.HPLRmax(n), fw)/1e9,
		power.MWPerExaflop(frontier.HPLRmax(n), fw))
}
