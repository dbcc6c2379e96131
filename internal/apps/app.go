package apps

import (
	"fmt"

	"frontiersim/internal/units"
)

// Result is one application run on one platform.
type Result struct {
	App      string
	Platform string
	Nodes    int
	// FOM is the application's figure of merit in Unit.
	FOM  float64
	Unit string
	// StepTime is the modelled time per iteration where meaningful.
	StepTime units.Seconds
	// ParallelEff is the modelled parallel/weak-scaling efficiency
	// where the application reports one.
	ParallelEff float64
	Notes       string
}

// String renders the result.
func (r Result) String() string {
	return fmt.Sprintf("%-10s on %-8s (%5d nodes): FOM %.4g %s", r.App, r.Platform, r.Nodes, r.FOM, r.Unit)
}

// App is one application proxy.
type App interface {
	// Name is the application's name as the paper uses it.
	Name() string
	// BaselineName is the platform the KPP compares against.
	BaselineName() string
	// TargetSpeedup is the KPP goal (4x for CAAR, 50x for ECP).
	TargetSpeedup() float64
	// PaperSpeedup is the achieved value the paper reports.
	PaperSpeedup() float64
	// Run executes the proxy on a platform using n nodes (0 = the
	// run size the paper used on that platform).
	Run(p *Platform, nodes int) (Result, error)
	// FrontierNodes and BaselineNodes are the paper's run sizes.
	FrontierNodes() int
	BaselineNodes() int
}

// Speedup runs app on Frontier and on its baseline platform at the
// paper's node counts and returns the figure-of-merit ratio. Platforms
// are obtained through resolve (normally the machine-spec layer's
// PlatformByName), keyed by the names the paper uses.
func Speedup(app App, resolve func(string) (*Platform, error)) (float64, Result, Result, error) {
	frontier, err := resolve("frontier")
	if err != nil {
		return 0, Result{}, Result{}, err
	}
	baseline, err := resolve(app.BaselineName())
	if err != nil {
		return 0, Result{}, Result{}, err
	}
	fr, err := app.Run(frontier, app.FrontierNodes())
	if err != nil {
		return 0, Result{}, Result{}, fmt.Errorf("apps: %s on frontier: %w", app.Name(), err)
	}
	br, err := app.Run(baseline, app.BaselineNodes())
	if err != nil {
		return 0, Result{}, Result{}, fmt.Errorf("apps: %s on %s: %w", app.Name(), baseline.Name, err)
	}
	if br.FOM <= 0 {
		return 0, fr, br, fmt.Errorf("apps: %s baseline FOM is zero", app.Name())
	}
	return fr.FOM / br.FOM, fr, br, nil
}

// CAARApps returns the Table 6 applications in paper order.
func CAARApps() []App {
	return []App{NewCoMet(), NewLSMS(), NewPIConGPU(), NewCholla(), NewGESTS(), NewAthenaPK()}
}

// ECPApps returns the Table 7 applications in paper order.
func ECPApps() []App {
	return []App{NewWarpX(), NewExaSky(), NewEXAALT(), NewExaSMR(), NewWDMApp()}
}
