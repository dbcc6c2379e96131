package fabric

import (
	"fmt"
)

// RoutingTable is one switch's forwarding state — what the fabric
// manager actually computes and pushes (§3.4.2). LocalNext gives the L1
// port (link id) toward every other switch in the group; GlobalNext
// gives, per destination group, the candidate first hops: this switch's
// own usable L2 links to that group, or failing that, the L1 links
// toward group-mates that have one.
type RoutingTable struct {
	Switch int
	Epoch  int
	// LocalNext maps a destination switch in this group to the L1 link.
	LocalNext map[int]int
	// GlobalNext maps a destination group to candidate link ids out of
	// this switch (L2 links directly, or L1 links toward carriers).
	GlobalNext map[int][]int
}

// BuildRoutingTable computes the current table for one switch from live
// link state.
func (f *Fabric) BuildRoutingTable(sw int) RoutingTable {
	return f.buildRoutingTable(sw, f.linkUp)
}

// buildRoutingTable computes one switch's table, asking up whether a
// link and its switches are usable.
func (f *Fabric) buildRoutingTable(sw int, up func(id int) bool) RoutingTable {
	rt := RoutingTable{Switch: sw, LocalNext: map[int]int{}, GlobalNext: map[int][]int{}}
	if f.Kind == FatTree {
		return rt // leaves forward everything to the core
	}
	g := f.SwitchGroup[sw]
	for _, peer := range f.groupSwitches[g] {
		if peer == sw {
			continue
		}
		if id, ok := f.intraLink(sw, peer); ok && up(id) {
			rt.LocalNext[peer] = id
		}
	}
	for dst := 0; dst < f.Cfg.TotalGroups(); dst++ {
		if dst == g {
			continue
		}
		var direct, viaPeer []int
		for _, id := range f.GlobalLinks(g, dst) {
			if !up(id) {
				continue
			}
			l := f.Links[id]
			if l.From == sw {
				direct = append(direct, id)
			} else if hop, ok := rt.LocalNext[l.From]; ok {
				viaPeer = append(viaPeer, hop)
			}
		}
		// Prefer this switch's own L2 ports; fall back to group-mates.
		rt.GlobalNext[dst] = append(direct, viaPeer...)
	}
	return rt
}

// BuildAllRoutingTables computes tables for every healthy switch from
// live link state.
func (f *Fabric) BuildAllRoutingTables() map[int]RoutingTable {
	return f.buildAllRoutingTables(f.SwitchHealthy, f.linkUp)
}

// buildAllRoutingTables computes tables for every switch healthy reports,
// asking up whether a link and its switches are usable.
func (f *Fabric) buildAllRoutingTables(healthy []bool, up func(id int) bool) map[int]RoutingTable {
	out := make(map[int]RoutingTable, f.NumSwitches)
	for sw := 0; sw < f.NumSwitches; sw++ {
		if healthy[sw] {
			out[sw] = f.buildRoutingTable(sw, up)
		}
	}
	return out
}

// ForwardMinimal walks the forwarding tables from src to dst endpoint,
// returning the links traversed — the table-driven counterpart of
// MinimalPath, used to validate that pushed tables are loop-free and
// complete. tables must cover every healthy switch.
func (f *Fabric) ForwardMinimal(tables map[int]RoutingTable, src, dst int) ([]int, error) {
	if src == dst {
		return nil, fmt.Errorf("fabric: self path for endpoint %d", src)
	}
	if !f.linkUp(f.injectLink[src]) || !f.linkUp(f.ejectLink[dst]) {
		return nil, fmt.Errorf("fabric: endpoint link down (%d->%d)", src, dst)
	}
	path := []int{f.injectLink[src]}
	cur := f.endpointSwitch[src]
	target := f.endpointSwitch[dst]
	targetGroup := f.SwitchGroup[target]
	for hops := 0; cur != target; hops++ {
		if hops > 4 {
			return nil, fmt.Errorf("fabric: forwarding loop at switch %d", cur)
		}
		rt, ok := tables[cur]
		if !ok {
			return nil, fmt.Errorf("fabric: no table for switch %d", cur)
		}
		var next int
		if f.SwitchGroup[cur] == targetGroup {
			id, ok := rt.LocalNext[target]
			if !ok {
				return nil, fmt.Errorf("fabric: switch %d has no local route to %d", cur, target)
			}
			next = id
		} else {
			cands := rt.GlobalNext[targetGroup]
			if len(cands) == 0 {
				return nil, fmt.Errorf("fabric: switch %d has no route to group %d", cur, targetGroup)
			}
			next = cands[0]
		}
		if !f.linkUp(next) {
			return nil, fmt.Errorf("fabric: table at switch %d points at down link %d", cur, next)
		}
		path = append(path, next)
		cur = f.Links[next].To
	}
	return append(path, f.ejectLink[dst]), nil
}
