package fabric

import (
	"fmt"
	"math/rand"
	"sort"

	"frontiersim/internal/units"
)

// LinkKind classifies a directed link.
type LinkKind uint8

// Link kinds.
const (
	// Injection is endpoint → switch.
	Injection LinkKind = iota
	// Ejection is switch → endpoint.
	Ejection
	// Intra is a switch → switch link within a group (an L1 port).
	Intra
	// Global is a switch → switch link between groups (an L2 port).
	Global
	// Uplink joins a leaf switch to the core of a Clos fabric.
	Uplink
	// Downlink joins the Clos core to a leaf switch.
	Downlink
)

// String implements fmt.Stringer.
func (k LinkKind) String() string {
	switch k {
	case Injection:
		return "injection"
	case Ejection:
		return "ejection"
	case Intra:
		return "intra(L1)"
	case Global:
		return "global(L2)"
	case Uplink:
		return "uplink"
	case Downlink:
		return "downlink"
	}
	return fmt.Sprintf("LinkKind(%d)", int(k))
}

// Link is one directed link. A link's id is its index in Fabric.Links.
// The fields are ordered and sized so a link takes 24 bytes: Frontier
// has 177,340 of them, and every solve reads them by random link id.
type Link struct {
	// From and To are switch ids for switch-to-switch links. For
	// Injection, From is an endpoint id; for Ejection, To is an
	// endpoint id.
	From, To int32
	// Cap is the usable capacity in bytes/s (line rate for fabric
	// links; line rate × endpoint efficiency at endpoints).
	Cap  float64
	Kind LinkKind
}

// Kind identifies the topology family of a built fabric.
type Kind int

// Fabric kinds.
const (
	// Dragonfly is the Slingshot three-hop direct topology.
	Dragonfly Kind = iota
	// FatTree is a non-blocking Clos, used to model Summit's EDR fabric.
	FatTree
)

// Fabric is a built network: switches, directed links, endpoints, and the
// indexes routing needs.
type Fabric struct {
	Cfg  Config
	Kind Kind

	// NumSwitches counts switches (plus one virtual core for FatTree).
	NumSwitches   int
	SwitchGroup   []int
	groupClass    []GroupClass
	groupSwitches [][]int

	Links []Link
	// Routing lookups sit on the path-fill hot loop (millions of probes
	// per census), so both are dense arrays rather than maps:
	//
	// switchLocal[sw] is sw's index within its group's switch list.
	switchLocal []int32
	// intraDense packs one (local,local) block per group: entry
	// intraBase[g] + la*len(group)+lb holds the directed intra link id
	// biased by +1 (0 = no link). Intra links never cross groups, so the
	// blocks cover every possible key in Σ len(group)² slots.
	intraDense []int32
	intraBase  []int32
	// The directed global link ids from group a to group b are
	// globalIDs[globalOff[k]:globalOff[k+1]] with k = a*numGroups+b, in
	// cabling order: pickUp's rotation offsets index into that order.
	globalOff []int32
	globalIDs []int
	numGroups int

	NumEndpoints   int
	endpointSwitch []int
	injectLink     []int
	ejectLink      []int
	// nodeGroup[n] is compute node n's group, the group of its first
	// NIC. stretchEnd[n] is one past the last node of the run of
	// consecutive node ids from n that share n's group, so sorted
	// placements are read one stretch at a time instead of per node.
	nodeGroup, stretchEnd []int32

	// uplink and downlink join each leaf to the core in FatTree fabrics.
	uplink, downlink []int
}

// initRoutingIndex sizes the dense routing lookups once groups and
// switches exist. Constructors must call it before adding intra or
// global links.
func (f *Fabric) initRoutingIndex() {
	f.numGroups = len(f.groupSwitches)
	f.switchLocal = make([]int32, f.NumSwitches)
	f.intraBase = make([]int32, f.numGroups+1)
	base := int32(0)
	for g, ids := range f.groupSwitches {
		f.intraBase[g] = base
		for li, sw := range ids {
			f.switchLocal[sw] = int32(li)
		}
		base += int32(len(ids) * len(ids))
	}
	f.intraBase[f.numGroups] = base
	f.intraDense = make([]int32, base)
	f.globalOff = make([]int32, f.numGroups*f.numGroups+1)
}

// allocLinks sizes the link and endpoint tables once, at their final
// length: constructors count both from the config before cabling, so a
// build allocates each table exactly once.
func (f *Fabric) allocLinks(links, endpoints int) {
	f.Links = make([]Link, 0, links)
	f.NumEndpoints = endpoints
	f.endpointSwitch = make([]int, endpoints)
	f.injectLink = make([]int, endpoints)
	f.ejectLink = make([]int, endpoints)
}

// cableEndpoint wires endpoint ep to switch sw with an injection and an
// ejection link of capacity epCap.
func (f *Fabric) cableEndpoint(ep, sw int, epCap float64) {
	f.endpointSwitch[ep] = sw
	f.injectLink[ep] = f.addLink(Injection, ep, sw, epCap)
	f.ejectLink[ep] = f.addLink(Ejection, sw, ep, epCap)
}

// setIntra records a directed intra-group link in the dense index.
func (f *Fabric) setIntra(a, b, id int) {
	g := f.SwitchGroup[a]
	n := int32(len(f.groupSwitches[g]))
	f.intraDense[f.intraBase[g]+f.switchLocal[a]*n+f.switchLocal[b]] = int32(id) + 1
}

// intraLink returns the directed intra-group link a -> b. a and b must
// be distinct switches of one dragonfly group; groups are fully
// connected, so that link always exists.
func (f *Fabric) intraLink(a, b int) int {
	g := f.SwitchGroup[a]
	n := int32(len(f.groupSwitches[g]))
	return int(f.intraDense[f.intraBase[g]+f.switchLocal[a]*n+f.switchLocal[b]]) - 1
}

// NewDragonfly builds the dragonfly described by cfg. Groups are laid out
// compute-first, then I/O, then management; endpoints likewise, so the
// first Cfg.ComputeEndpoints() endpoints belong to compute nodes
// (endpoint 4n+i is NIC i of node n).
func NewDragonfly(cfg Config) (*Fabric, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := &Fabric{
		Cfg:  cfg,
		Kind: Dragonfly,
	}
	// Groups and switches. Every group's switch list is a window of one
	// id table.
	groups := cfg.TotalGroups()
	f.groupClass = make([]GroupClass, groups)
	for g := range f.groupClass {
		switch {
		case g >= cfg.ComputeGroups+cfg.IOGroups:
			f.groupClass[g] = MgmtGroup
		case g >= cfg.ComputeGroups:
			f.groupClass[g] = IOGroup
		}
		f.NumSwitches += cfg.groupSwitchCount(f.groupClass[g])
	}
	f.SwitchGroup = make([]int, f.NumSwitches)
	ids := make([]int, f.NumSwitches)
	f.groupSwitches = make([][]int, groups)
	intra := 0
	for g, sw := 0, 0; g < groups; g++ {
		nsw := cfg.groupSwitchCount(f.groupClass[g])
		f.groupSwitches[g] = ids[sw : sw+nsw : sw+nsw]
		for end := sw + nsw; sw < end; sw++ {
			ids[sw] = sw
			f.SwitchGroup[sw] = g
		}
		intra += nsw * (nsw - 1)
	}
	f.initRoutingIndex()
	// Global link counts per ordered group pair, as offsets.
	for k := range groups * groups {
		a, b := k/groups, k%groups
		n := 0
		if a != b {
			n = cfg.globalLinksBetween(f.groupClass[a], f.groupClass[b])
		}
		f.globalOff[k+1] = f.globalOff[k] + int32(n)
	}
	globals := int(f.globalOff[groups*groups])
	f.globalIDs = make([]int, globals)
	endpoints := f.NumSwitches * cfg.EndpointsPerSwitch
	f.allocLinks(2*endpoints+intra+globals, endpoints)
	// Endpoints on every switch.
	epCap := float64(cfg.LinkRate) * cfg.EndpointEfficiency
	for ep := range endpoints {
		f.cableEndpoint(ep, ep/cfg.EndpointsPerSwitch, epCap)
	}
	f.indexNodeGroups()
	// Intra-group: full connectivity.
	for _, ids := range f.groupSwitches {
		for i := 0; i < len(ids); i++ {
			for j := 0; j < len(ids); j++ {
				if i == j {
					continue
				}
				id := f.addLink(Intra, ids[i], ids[j], float64(cfg.LinkRate))
				f.setIntra(ids[i], ids[j], id)
			}
		}
	}
	// Global links between every group pair, spread across switches.
	for a := 0; a < groups; a++ {
		for b := a + 1; b < groups; b++ {
			ab, ba := f.globalOff[a*groups+b], f.globalOff[b*groups+a]
			n := int(f.globalOff[a*groups+b+1] - ab)
			for i := 0; i < n; i++ {
				swa := f.groupSwitches[a][(b*n+i)%len(f.groupSwitches[a])]
				swb := f.groupSwitches[b][(a*n+i)%len(f.groupSwitches[b])]
				f.globalIDs[int(ab)+i] = f.addLink(Global, swa, swb, float64(cfg.LinkRate))
				f.globalIDs[int(ba)+i] = f.addLink(Global, swb, swa, float64(cfg.LinkRate))
			}
		}
	}
	return f, nil
}

// groupSwitchCount returns the switch count of a group of the given class.
func (c Config) groupSwitchCount(class GroupClass) int {
	if class == ComputeGroup {
		return c.ComputeGroupSwitches
	}
	return c.TORGroupSwitches
}

// globalLinksBetween returns the link count between groups of the given
// classes (the paper's bundle plan, §3.2).
func (c Config) globalLinksBetween(a, b GroupClass) int {
	switch {
	case a == ComputeGroup && b == ComputeGroup:
		return c.ComputeComputeLinks
	case (a == ComputeGroup && b == IOGroup) || (a == IOGroup && b == ComputeGroup):
		return c.ComputeIOLinks
	case (a == ComputeGroup && b == MgmtGroup) || (a == MgmtGroup && b == ComputeGroup):
		return c.ComputeMgmtLinks
	case a == IOGroup && b == IOGroup:
		return c.IOIOLinks
	default: // IO <-> Mgmt (or Mgmt <-> Mgmt, which does not occur)
		return c.IOMgmtLinks
	}
}

func (f *Fabric) addLink(kind LinkKind, from, to int, capacity float64) int {
	id := len(f.Links)
	f.Links = append(f.Links, Link{From: int32(from), To: int32(to), Cap: capacity, Kind: kind})
	return id
}

// EndpointGroup returns the dragonfly group of an endpoint.
func (f *Fabric) EndpointGroup(ep int) int { return f.SwitchGroup[f.endpointSwitch[ep]] }

// NodeEndpoints returns the endpoint ids of compute node n.
func (f *Fabric) NodeEndpoints(n int) []int {
	k := f.Cfg.NICsPerNode
	eps := make([]int, k)
	for i := range eps {
		eps[i] = n*k + i
	}
	return eps
}

// NodeEndpoint returns the endpoint id of NIC i of compute node n — the
// allocation-free form of NodeEndpoints[i] for demand-building hot loops
// (a full census touches hundreds of thousands of node/NIC pairs).
func (f *Fabric) NodeEndpoint(n, i int) int {
	return n*f.Cfg.NICsPerNode + i%f.Cfg.NICsPerNode
}

// indexNodeGroups fills the node→group and stretch-end tables.
// Constructors call it once every endpoint is cabled.
func (f *Fabric) indexNodeGroups() {
	k := f.Cfg.NICsPerNode
	total := f.Cfg.ComputeNodes()
	f.nodeGroup = make([]int32, total)
	f.stretchEnd = make([]int32, total)
	for n := range f.nodeGroup {
		f.nodeGroup[n] = int32(f.SwitchGroup[f.endpointSwitch[n*k]])
	}
	for n := total - 1; n >= 0; n-- {
		f.stretchEnd[n] = int32(n + 1)
		if n+1 < total && f.nodeGroup[n+1] == f.nodeGroup[n] {
			f.stretchEnd[n] = f.stretchEnd[n+1]
		}
	}
}

// NodeGroup returns the dragonfly group of compute node n: the group of
// its first NIC. It is the one node→group mapping communicators,
// placement signatures and the scheduler share.
func (f *Fabric) NodeGroup(n int) int { return int(f.nodeGroup[n]) }

// NextStretch returns the index of the first element of nodes after i
// that lies outside nodes[i]'s stretch: the run of consecutive compute
// node ids from nodes[i] that share its group. Stretches are exact for
// any layout, including groups that are not contiguous id ranges, so
// every element in between is in nodes[i]'s group. nodes must be
// strictly increasing from i; then nodes[i+k] >= nodes[i]+k, and the
// binary search never looks past the stretch's length.
func (f *Fabric) NextStretch(nodes []int, i int) int {
	end := int(f.stretchEnd[nodes[i]])
	hi := min(len(nodes), i+end-nodes[i])
	return i + sort.SearchInts(nodes[i:hi], end)
}

// CheckNodes reports the first node that is not a compute node of the
// fabric or appears twice: the placements communicators and pricing
// accept. Strictly increasing lists — every scheduler allocation — need
// no set.
func (f *Fabric) CheckNodes(nodes []int) error {
	total := len(f.nodeGroup)
	increasing := true
	for i, n := range nodes {
		if n < 0 || n >= total {
			return fmt.Errorf("node %d outside fabric (0..%d)", n, total-1)
		}
		if i > 0 && n <= nodes[i-1] {
			increasing = false
		}
	}
	if increasing {
		return nil
	}
	seen := make([]uint64, (total+63)/64)
	for _, n := range nodes {
		if seen[n/64]&(1<<(n%64)) != 0 {
			return fmt.Errorf("node %d appears twice", n)
		}
		seen[n/64] |= 1 << (n % 64)
	}
	return nil
}

// GroupsSpanned returns how many distinct dragonfly groups the compute
// nodes touch. A strictly increasing list — every scheduler allocation
// and its rank-0 subgroups — is read one group stretch at a time.
func (f *Fabric) GroupsSpanned(nodes []int) int {
	var stack [128]bool // every canonical machine fits: no allocation
	var seen []bool
	if f.numGroups <= len(stack) {
		seen = stack[:f.numGroups]
	} else {
		seen = make([]bool, f.numGroups)
	}
	increasing := true
	for i := 1; i < len(nodes) && increasing; i++ {
		increasing = nodes[i] > nodes[i-1]
	}
	groups := 0
	for i := 0; i < len(nodes); {
		g := f.nodeGroup[nodes[i]]
		if increasing {
			i = f.NextStretch(nodes, i)
		} else {
			i++
		}
		if !seen[g] {
			seen[g] = true
			groups++
		}
	}
	return groups
}

// GroupClassOf returns a group's class.
func (f *Fabric) GroupClassOf(g int) GroupClass { return f.groupClass[g] }

// GlobalLinks returns the directed global link ids from group a to b.
func (f *Fabric) GlobalLinks(a, b int) []int {
	if a < 0 || b < 0 || a >= f.numGroups || b >= f.numGroups {
		return nil
	}
	k := a*f.numGroups + b
	lo, hi := f.globalOff[k], f.globalOff[k+1]
	return f.globalIDs[lo:hi:hi]
}

// pickUp returns the link at the rotation offset in a bundle; ok is
// false only for an empty bundle, which a spec may legally configure.
// Offsets are small and non-negative, so a 32-bit modulo gives the same
// index as a full-width one at a fraction of the divide's latency.
func pickUp(ids []int, offset int) (int, bool) {
	if len(ids) == 0 {
		return 0, false
	}
	return ids[uint32(offset)%uint32(len(ids))], true
}

// MinimalPath returns the directed link sequence of the minimal route
// between two endpoints: inject → (intra) → (global) → (intra) → eject.
// rng selects among parallel global links; it may be nil for a
// deterministic choice.
func (f *Fabric) MinimalPath(src, dst int, rng *rand.Rand) ([]int, error) {
	return f.appendMinimalPath(make([]int, 0, 6), src, dst, rng)
}

// appendMinimalPath appends the minimal route's links to buf and returns
// the extended slice. On error buf's visible contents are unchanged
// (callers rewind by keeping their original slice header), which is what
// lets AppendAdaptivePaths fill every route of a path set into the
// caller's buffer.
func (f *Fabric) appendMinimalPath(buf []int, src, dst int, rng *rand.Rand) ([]int, error) {
	if src == dst {
		return nil, fmt.Errorf("fabric: self path for endpoint %d", src)
	}
	path := append(buf, f.injectLink[src])
	s1, s2 := f.endpointSwitch[src], f.endpointSwitch[dst]
	if f.Kind == FatTree {
		if s1 != s2 {
			path = append(path, f.uplink[s1], f.downlink[s2])
		}
		return append(path, f.ejectLink[dst]), nil
	}
	g1, g2 := f.SwitchGroup[s1], f.SwitchGroup[s2]
	switch {
	case s1 == s2:
		// Same switch: inject + eject only.
	case g1 == g2:
		path = append(path, f.intraLink(s1, s2))
	default:
		off := 0
		if rng != nil {
			off = rng.Intn(8)
		}
		gl, ok := pickUp(f.GlobalLinks(g1, g2), off)
		if !ok {
			return nil, fmt.Errorf("fabric: no global link from group %d to %d", g1, g2)
		}
		sa, sb := int(f.Links[gl].From), int(f.Links[gl].To)
		if sa != s1 {
			path = append(path, f.intraLink(s1, sa))
		}
		path = append(path, gl)
		if sb != s2 {
			path = append(path, f.intraLink(sb, s2))
		}
	}
	return append(path, f.ejectLink[dst]), nil
}

// ValiantPath returns a non-minimal route through intermediate group via:
// the Valiant trick dragonflies use to spread adversarial traffic. via
// must differ from both endpoint groups.
func (f *Fabric) ValiantPath(src, dst, via int, rng *rand.Rand) ([]int, error) {
	return f.appendValiantPath(make([]int, 0, 8), src, dst, via, rng)
}

// appendValiantPath is ValiantPath in the append style of
// appendMinimalPath: links land in buf, errors leave it untouched.
func (f *Fabric) appendValiantPath(buf []int, src, dst, via int, rng *rand.Rand) ([]int, error) {
	s1, s2 := f.endpointSwitch[src], f.endpointSwitch[dst]
	g1, g2 := f.SwitchGroup[s1], f.SwitchGroup[s2]
	if via == g1 || via == g2 {
		return nil, fmt.Errorf("fabric: valiant group %d collides with endpoint groups %d,%d", via, g1, g2)
	}
	off1, off2 := 0, 0
	if rng != nil {
		off1, off2 = rng.Intn(8), rng.Intn(8)
	}
	gl1, ok := pickUp(f.GlobalLinks(g1, via), off1)
	if !ok {
		return nil, fmt.Errorf("fabric: no global link from group %d to %d", g1, via)
	}
	gl2, ok := pickUp(f.GlobalLinks(via, g2), off2)
	if !ok {
		return nil, fmt.Errorf("fabric: no global link from group %d to %d", via, g2)
	}
	path := append(buf, f.injectLink[src])
	sa, sm1 := int(f.Links[gl1].From), int(f.Links[gl1].To)
	sm2, sb := int(f.Links[gl2].From), int(f.Links[gl2].To)
	if sa != s1 {
		path = append(path, f.intraLink(s1, sa))
	}
	path = append(path, gl1)
	if sm1 != sm2 {
		path = append(path, f.intraLink(sm1, sm2))
	}
	path = append(path, gl2)
	if sb != s2 {
		path = append(path, f.intraLink(sb, s2))
	}
	return append(path, f.ejectLink[dst]), nil
}

// PathLatency returns the zero-load latency of a path: endpoint overhead
// at both ends plus a switch traversal per switch on the route.
func (f *Fabric) PathLatency(path []int) units.Seconds {
	lat := 2 * f.Cfg.EndpointLatency
	for _, id := range path {
		if f.Links[id].Kind != Ejection {
			// Every non-ejection link lands in a switch that must
			// forward the packet.
			lat += f.Cfg.SwitchLatency
		}
	}
	return lat
}

// String summarises the fabric.
func (f *Fabric) String() string {
	return fmt.Sprintf("%s: %d groups, %d switches, %d endpoints, %d directed links",
		f.Cfg.Name, f.Cfg.TotalGroups(), f.NumSwitches, f.NumEndpoints, len(f.Links))
}
