package fabric

import (
	"frontiersim/internal/sim"
	"frontiersim/internal/units"
)

// Manager models the Slingshot Fabric Manager (§3.4.2): switches boot
// blank, the manager pushes configuration, then periodically sweeps the
// fabric for failures or topology changes and sends updated routing
// tables to affected switches. In the model a "routing table push" is a
// bump of the routing epoch: path construction always consults current
// link state, so routes recompute lazily after each sweep. The pushed
// tables themselves are built only when Tables reads them, from the state
// the last sweep observed, so they equal what an eager push would have
// produced without every system build paying for them.
type Manager struct {
	F *Fabric
	// SweepInterval is how often the manager polls every switch.
	SweepInterval units.Seconds
	// Epoch increments whenever a sweep observes a state change.
	Epoch int
	// RoutesPushed counts routing-table updates sent to switches.
	RoutesPushed int

	// tables holds the pushed tables once built; nil after construction
	// and after every sweep that saw a change.
	tables map[int]RoutingTable

	lastLinkUp   []bool
	lastSwHealth []bool
	k            *sim.Kernel
	stop         sim.Event
}

// NewManager returns a manager for fabric f.
func NewManager(f *Fabric, sweepInterval units.Seconds) *Manager {
	m := &Manager{F: f, SweepInterval: sweepInterval}
	m.snapshot()
	return m
}

func (m *Manager) snapshot() {
	m.lastLinkUp = make([]bool, len(m.F.Links))
	for i := range m.F.Links {
		m.lastLinkUp[i] = m.F.Links[i].Up
	}
	m.lastSwHealth = append([]bool(nil), m.F.SwitchHealthy...)
}

// Tables returns the forwarding state most recently pushed to switches:
// a table for every switch healthy at the last sweep (or at
// construction), computed from the link state that sweep observed.
// Failures since then are not in it until the next sweep sees them.
func (m *Manager) Tables() map[int]RoutingTable {
	if m.tables == nil {
		m.tables = m.F.buildAllRoutingTables(m.lastSwHealth, m.sweptUp)
	}
	return m.tables
}

// sweptUp reports whether a link and its switches were usable when the
// last sweep observed them.
func (m *Manager) sweptUp(id int) bool {
	return m.lastLinkUp[id] && m.F.Links[id].endsHealthy(m.lastSwHealth)
}

// Sweep polls all switches once and returns the number of observed state
// changes. On any change the routing epoch advances and new tables are
// pushed to the switches that own changed links.
func (m *Manager) Sweep() int {
	changes := 0
	affected := map[int]bool{}
	for i := range m.F.Links {
		if m.F.Links[i].Up != m.lastLinkUp[i] {
			changes++
			l := m.F.Links[i]
			if l.Kind != Injection {
				affected[int(l.From)] = true
			}
			if l.Kind != Ejection {
				affected[int(l.To)] = true
			}
			m.lastLinkUp[i] = l.Up
		}
	}
	for s := range m.F.SwitchHealthy {
		if m.F.SwitchHealthy[s] != m.lastSwHealth[s] {
			changes++
			affected[s] = true
			m.lastSwHealth[s] = m.F.SwitchHealthy[s]
		}
	}
	if changes > 0 {
		m.Epoch++
		m.RoutesPushed += len(affected)
		// Push new forwarding tables. Affected switches get new tables;
		// group-mates of failed hardware also change (their fallback
		// candidates moved), so the manager rebuilds the lot on the next
		// read — the real implementation diffs, the effect is the same.
		m.tables = nil
	}
	return changes
}

// sweepTick is the closure-free sweep body: the manager itself is the
// event arg, so periodic rescheduling allocates nothing per tick.
func sweepTick(arg any) {
	m := arg.(*Manager)
	m.Sweep()
	m.stop = m.k.AfterCall(m.SweepInterval, sweepTick, m)
}

// Start schedules periodic sweeps on the simulation kernel.
func (m *Manager) Start(k *sim.Kernel) {
	m.k = k
	m.stop = k.AfterCall(m.SweepInterval, sweepTick, m)
}

// Stop cancels the periodic sweep.
func (m *Manager) Stop() {
	m.stop.Cancel()
	m.stop = sim.Event{}
}
