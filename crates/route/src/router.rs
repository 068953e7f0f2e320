//! Net decomposition and GCell routing.

use crate::congestion::{CongestionMap, MAX_EDGE_COST};
use crate::error::RouteError;
use cp_netlist::floorplan::{Floorplan, Rect};
use cp_netlist::netlist::{Netlist, PinRef};

/// Router tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterOptions {
    /// GCell edge length in µm (0 = auto: three row heights).
    pub gcell_size: f64,
    /// Tracks per GCell edge per routing layer.
    pub tracks_per_layer: u32,
    /// Routing layers per direction.
    pub layers_per_direction: u32,
    /// Enable congestion-aware maze fallback when both L-shapes overflow.
    pub maze_fallback: bool,
    /// Margin (in GCells) around a segment's bbox for maze search.
    pub maze_margin: usize,
}

impl Default for RouterOptions {
    fn default() -> Self {
        Self {
            gcell_size: 0.0,
            tracks_per_layer: 10,
            layers_per_direction: 3,
            maze_fallback: true,
            maze_margin: 8,
        }
    }
}

/// The routing outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingResult {
    /// Routed wirelength in µm (GCell path length).
    pub wirelength: f64,
    /// Sum of net HPWLs in µm (for the detour factor).
    pub hpwl: f64,
    /// Edge demand/capacity map.
    pub congestion: CongestionMap,
    /// Segments that needed the maze fallback.
    pub mazed_segments: usize,
}

impl RoutingResult {
    /// Routed length over HPWL (≥ 1 for non-degenerate routes); feeds the
    /// post-route wire model.
    pub fn detour_factor(&self) -> f64 {
        if self.hpwl <= 0.0 {
            1.0
        } else {
            (self.wirelength / self.hpwl).max(1.0)
        }
    }
}

/// Routes a set of nets given as pin-position lists within `region`.
///
/// Three-pin nets route to their Steiner (median) point, larger nets are
/// decomposed over a Manhattan-distance Prim MST; each two-pin segment
/// takes the less congested L-shape, falling back to a congestion-aware
/// maze within the segment bbox (plus margin) when both L-shapes hit a
/// full edge.
///
/// # Errors
///
/// Returns [`RouteError::NonFinitePin`] if any pin coordinate is NaN or
/// infinite (such a pin cannot be mapped to a GCell).
pub fn route_nets(
    nets: &[Vec<(f64, f64)>],
    region: Rect,
    options: &RouterOptions,
) -> Result<RoutingResult, RouteError> {
    route_nets_with_blockages(nets, region, &[], options)
}

/// Like [`route_nets`], with macro obstructions: GCell edges under a
/// blockage keep only 40% of their capacity (macros consume the lower
/// routing layers).
///
/// # Errors
///
/// Returns [`RouteError::NonFinitePin`] if any pin coordinate is NaN or
/// infinite.
pub fn route_nets_with_blockages(
    nets: &[Vec<(f64, f64)>],
    region: Rect,
    blockages: &[Rect],
    options: &RouterOptions,
) -> Result<RoutingResult, RouteError> {
    route_nets_counted(nets, region, blockages, options).map(|(routed, _)| routed)
}

/// Work counts of one routing call, published on the `route.global` span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct RouteStats {
    /// Two-pin segments that took an L-shape (same-GCell segments are
    /// not routed and not counted).
    pattern_segments: u64,
    /// Segments that took the maze.
    mazed_segments: u64,
    /// GCells inside the search windows of all maze calls.
    maze_window_nodes: u64,
    /// GCells the maze searches settled before reaching their targets.
    maze_settled_nodes: u64,
}

impl RouteStats {
    fn entries(&self) -> [(&'static str, u64); 5] {
        [
            (
                "route.segments",
                self.pattern_segments + self.mazed_segments,
            ),
            ("route.pattern_segments", self.pattern_segments),
            ("route.mazed_segments", self.mazed_segments),
            ("route.maze.window_nodes", self.maze_window_nodes),
            ("route.maze.settled_nodes", self.maze_settled_nodes),
        ]
    }
}

type GCell = (usize, usize);

/// The body of [`route_nets_with_blockages`], also returning work counts.
fn route_nets_counted(
    nets: &[Vec<(f64, f64)>],
    region: Rect,
    blockages: &[Rect],
    options: &RouterOptions,
) -> Result<(RoutingResult, RouteStats), RouteError> {
    for (ni, pins) in nets.iter().enumerate() {
        if pins.iter().any(|&(x, y)| !x.is_finite() || !y.is_finite()) {
            return Err(RouteError::NonFinitePin { net: ni });
        }
    }
    let gcell = if options.gcell_size > 0.0 {
        options.gcell_size
    } else {
        4.2 // three NanGate45-ish rows
    };
    let nx = ((region.width() / gcell).ceil() as usize).max(1);
    let ny = ((region.height() / gcell).ceil() as usize).max(1);
    let cap = (options.tracks_per_layer * options.layers_per_direction) as f64;
    let mut map = CongestionMap::new(nx, ny, gcell, cap, cap);
    for b in blockages {
        let i0 = (((b.llx - region.llx) / gcell).floor().max(0.0)) as usize;
        let j0 = (((b.lly - region.lly) / gcell).floor().max(0.0)) as usize;
        let i1 = (((b.urx - region.llx) / gcell).ceil().max(0.0)) as usize;
        let j1 = (((b.ury - region.lly) / gcell).ceil().max(0.0)) as usize;
        map.derate(i0, j0, i1.min(nx - 1), j1.min(ny - 1), 0.4);
    }

    let to_gcell = |x: f64, y: f64| -> GCell {
        let i = (((x - region.llx) / gcell) as isize).clamp(0, nx as isize - 1) as usize;
        let j = (((y - region.lly) / gcell) as isize).clamp(0, ny as isize - 1) as usize;
        (i, j)
    };

    // Route small-bbox nets first (they have the least flexibility).
    let bbox_hp: Vec<f64> = nets
        .iter()
        .map(|pins| {
            let (mut lx, mut ly, mut hx, mut hy) = (f64::MAX, f64::MAX, f64::MIN, f64::MIN);
            for &(x, y) in pins {
                lx = lx.min(x);
                ly = ly.min(y);
                hx = hx.max(x);
                hy = hy.max(y);
            }
            (hx - lx) + (hy - ly)
        })
        .collect();
    let mut order: Vec<usize> = (0..nets.len()).collect();
    order.sort_by(|&a, &b| bbox_hp[a].total_cmp(&bbox_hp[b]));

    let mut wirelength = 0.0;
    let mut hpwl = 0.0;
    let mut stats = RouteStats::default();
    // Working storage of this call, reused across nets and segments.
    let mut cells: Vec<GCell> = Vec::new();
    let mut mst = MstScratch::default();
    let mut maze = MazeScratch::new();
    for &ni in &order {
        let pins = &nets[ni];
        if pins.len() < 2 {
            continue;
        }
        hpwl += bbox_hp[ni];
        cells.clear();
        cells.extend(pins.iter().map(|&(x, y)| to_gcell(x, y)));
        mst_segments(&cells, &mut mst);
        for &(a, b) in &mst.segments {
            if a == b {
                continue;
            }
            let len = route_segment(&mut map, a, b, options, &mut maze, &mut stats);
            wirelength += len * gcell;
        }
    }
    let routed = RoutingResult {
        wirelength,
        hpwl,
        congestion: map,
        mazed_segments: stats.mazed_segments as usize,
    };
    Ok((routed, stats))
}

/// Routes a placed flat netlist (positions indexed as hypergraph vertices:
/// cells then ports). Clock nets are skipped — CTS owns them.
///
/// # Errors
///
/// Returns [`RouteError::PositionCountMismatch`] when `positions` is
/// shorter than the netlist's vertex count, and
/// [`RouteError::NonFinitePin`] when a pin coordinate is NaN or infinite.
pub fn route_placed_netlist(
    netlist: &Netlist,
    positions: &[(f64, f64)],
    floorplan: &Floorplan,
    options: &RouterOptions,
) -> Result<RoutingResult, RouteError> {
    let mut span = cp_trace::span_with(
        "route.global",
        &[("nets", cp_trace::ArgValue::U(netlist.net_count() as u64))],
    );
    let expected = netlist.cell_count() + netlist.port_count();
    if positions.len() < expected {
        return Err(RouteError::PositionCountMismatch {
            expected,
            got: positions.len(),
        });
    }
    let mut opts = *options;
    if opts.gcell_size <= 0.0 {
        opts.gcell_size = 3.0 * floorplan.row_height;
    }
    opts.tracks_per_layer = netlist.library().tracks_per_layer;
    opts.layers_per_direction = netlist.library().horizontal_layers;
    let mut nets: Vec<Vec<(f64, f64)>> = Vec::with_capacity(netlist.net_count());
    for net in netlist.nets() {
        if net.is_clock {
            continue;
        }
        let mut pins = Vec::with_capacity(net.pin_count());
        for p in net.driver.iter().chain(net.sinks.iter()) {
            let v = match *p {
                PinRef::Cell { cell, .. } => netlist.cell_vertex(cell),
                PinRef::Port(port) => netlist.port_vertex(port),
            };
            pins.push(positions[v as usize]);
        }
        nets.push(pins);
    }
    let (routed, stats) = route_nets_counted(&nets, floorplan.die, &floorplan.blockages, &opts)?;
    if cp_trace::enabled() {
        for (name, count) in stats.entries() {
            span.arg(name, cp_trace::ArgValue::U(count));
            cp_trace::counter_add(name, count);
        }
    }
    Ok(routed)
}

/// Buffers of [`mst_segments`], reused from net to net.
#[derive(Default)]
struct MstScratch {
    in_tree: Vec<bool>,
    /// Per pin: (distance to the tree, closest tree pin).
    best: Vec<(usize, usize)>,
    /// The decomposition of the last net.
    segments: Vec<(GCell, GCell)>,
}

/// Decomposes a net into two-pin segments (left in `scratch.segments`):
/// exact rectilinear Steiner for three pins (the Steiner point is the
/// coordinate-wise median), Prim MST in the Manhattan metric otherwise,
/// star fallback for very high fanout.
fn mst_segments(cells: &[GCell], scratch: &mut MstScratch) {
    let MstScratch {
        in_tree,
        best,
        segments,
    } = scratch;
    segments.clear();
    let n = cells.len();
    if n == 3 {
        // The 3-pin RSMT routes every pin to the median point.
        let mut xs = [cells[0].0, cells[1].0, cells[2].0];
        let mut ys = [cells[0].1, cells[1].1, cells[2].1];
        xs.sort_unstable();
        ys.sort_unstable();
        let steiner = (xs[1], ys[1]);
        segments.extend(
            cells
                .iter()
                .filter(|&&c| c != steiner)
                .map(|&c| (steiner, c)),
        );
        return;
    }
    if n > 1000 {
        segments.extend((1..n).map(|i| (cells[0], cells[i])));
        return;
    }
    let dist = |a: GCell, b: GCell| -> usize { a.0.abs_diff(b.0) + a.1.abs_diff(b.1) };
    in_tree.clear();
    in_tree.resize(n, false);
    best.clear();
    best.resize(n, (usize::MAX, 0));
    in_tree[0] = true;
    for i in 1..n {
        best[i] = (dist(cells[0], cells[i]), 0);
    }
    for _ in 1..n {
        let mut pick = usize::MAX;
        for i in 0..n {
            if !in_tree[i] && (pick == usize::MAX || best[i].0 < best[pick].0) {
                pick = i;
            }
        }
        if pick == usize::MAX {
            break;
        }
        in_tree[pick] = true;
        segments.push((cells[best[pick].1], cells[pick]));
        for i in 0..n {
            if !in_tree[i] {
                let d = dist(cells[pick], cells[i]);
                if d < best[i].0 {
                    best[i] = (d, pick);
                }
            }
        }
    }
}

/// Routes one segment and counts it in `stats`; returns GCell edges used.
fn route_segment(
    map: &mut CongestionMap,
    a: GCell,
    b: GCell,
    options: &RouterOptions,
    maze: &mut MazeScratch,
    stats: &mut RouteStats,
) -> f64 {
    // Straight lines and L-shapes.
    let util_l = |map: &CongestionMap, first_horizontal: bool| -> f64 {
        // An L runs horizontally at the start row (or end row) and
        // vertically at the corner column; take the worst edge utilization.
        let mut worst = 0.0f64;
        let (vx, y0, y1) = if first_horizontal {
            (b.0, a.1.min(b.1), a.1.max(b.1))
        } else {
            (a.0, a.1.min(b.1), a.1.max(b.1))
        };
        for j in y0..y1 {
            worst = worst.max(map.v_utilization(vx, j));
        }
        let (hy, x0, x1) = if first_horizontal {
            (a.1, a.0.min(b.0), a.0.max(b.0))
        } else {
            (b.1, a.0.min(b.0), a.0.max(b.0))
        };
        for i in x0..x1 {
            worst = worst.max(map.h_utilization(i, hy));
        }
        worst
    };
    let u_a = util_l(map, true);
    let u_b = util_l(map, false);
    let (first_horizontal, worst) = if u_a <= u_b {
        (true, u_a)
    } else {
        (false, u_b)
    };
    if worst >= 1.0 && options.maze_fallback {
        if let Some(len) = maze_route(map, a, b, options.maze_margin, maze, stats) {
            stats.mazed_segments += 1;
            return len;
        }
    }
    stats.pattern_segments += 1;
    commit_l(map, a, b, first_horizontal)
}

/// Commits an L-shaped route; returns edges used.
fn commit_l(map: &mut CongestionMap, a: GCell, b: GCell, first_horizontal: bool) -> f64 {
    let (hy, vx) = if first_horizontal {
        (a.1, b.0)
    } else {
        (b.1, a.0)
    };
    let (x0, x1) = (a.0.min(b.0), a.0.max(b.0));
    for i in x0..x1 {
        map.add_h(i, hy, 1.0);
    }
    let (y0, y1) = (a.1.min(b.1), a.1.max(b.1));
    for j in y0..y1 {
        map.add_v(vx, j, 1.0);
    }
    ((x1 - x0) + (y1 - y0)) as f64
}

/// Buckets of the maze's circular queue. Dial's algorithm needs more
/// buckets than the largest edge cost; a power of two makes the wrap a mask.
const BUCKETS: usize = (MAX_EDGE_COST as usize + 1).next_power_of_two();
const BUCKET_WORDS: usize = BUCKETS / 64;

/// "Not reached yet" in [`MazeScratch::dist`].
const UNREACHED: u32 = u32::MAX;

/// Working storage of [`maze_route`], owned by one routing call and reused
/// by every maze search in it. All per-node arrays cover the search window
/// plus a one-node ring, row-major with the padded width as the stride.
struct MazeScratch {
    /// Tentative path cost per node; 0 on the ring, so nothing relaxes
    /// into it and the search needs no bounds tests.
    dist: Vec<u32>,
    /// Predecessor on the cheapest known path.
    prev: Vec<u32>,
    /// Cost of the edge from a node to its east neighbour, copied from
    /// the map. Entries for edges into the ring are never written; the
    /// ring's zero `dist` makes their value irrelevant.
    east_cost: Vec<u16>,
    /// Cost of the edge from a node to its north neighbour.
    north_cost: Vec<u16>,
    /// Bucket `d % BUCKETS` holds the nodes pushed at path cost `d`.
    /// Entries are never removed on a decrease; a popped node whose `dist`
    /// no longer equals the bucket's cost is skipped.
    buckets: Vec<Vec<u32>>,
    /// Bit per bucket: clear means empty.
    nonempty: [u64; BUCKET_WORDS],
}

impl MazeScratch {
    fn new() -> Self {
        Self {
            dist: Vec::new(),
            prev: Vec::new(),
            east_cost: Vec::new(),
            north_cost: Vec::new(),
            buckets: vec![Vec::new(); BUCKETS],
            nonempty: [0; BUCKET_WORDS],
        }
    }

    /// Empties the queue (a search stops at its target with entries left).
    fn clear_queue(&mut self) {
        for (w, word) in self.nonempty.iter_mut().enumerate() {
            while *word != 0 {
                self.buckets[w * 64 + word.trailing_zeros() as usize].clear();
                *word &= *word - 1;
            }
        }
    }

    fn push(&mut self, node: usize, cost: u32) {
        let bucket = cost as usize % BUCKETS;
        self.buckets[bucket].push(node as u32);
        self.nonempty[bucket / 64] |= 1 << (bucket % 64);
    }

    /// The smallest queued path cost, given that none is below `from` and
    /// all are within `MAX_EDGE_COST` of it.
    fn next_cost(&self, from: u32) -> Option<u32> {
        let start = from as usize % BUCKETS;
        let (w0, b0) = (start / 64, start % 64);
        // Circular scan: the bits at and after `start` in its word, the
        // following words, and last the bits before `start`.
        for k in 0..=BUCKET_WORDS {
            let w = (w0 + k) % BUCKET_WORDS;
            let mut bits = self.nonempty[w];
            if k == 0 {
                bits &= !0 << b0;
            } else if k == BUCKET_WORDS {
                bits &= !(!0 << b0);
            }
            if bits != 0 {
                let bucket = w * 64 + bits.trailing_zeros() as usize;
                return Some(from + ((bucket + BUCKETS - start) % BUCKETS) as u32);
            }
        }
        None
    }
}

/// The maze's search window `(x0, y0, x1, y1)`, inclusive: the segment
/// bbox grown by `margin` GCells and clipped to the grid.
fn maze_window(
    map: &CongestionMap,
    a: GCell,
    b: GCell,
    margin: usize,
) -> (usize, usize, usize, usize) {
    (
        a.0.min(b.0).saturating_sub(margin),
        a.1.min(b.1).saturating_sub(margin),
        (a.0.max(b.0) + margin).min(map.nx() - 1),
        (a.1.max(b.1) + margin).min(map.ny() - 1),
    )
}

/// Congestion-aware shortest path within the segment bbox plus margin, on
/// the map's cached integer edge costs (Dial's algorithm: Dijkstra with a
/// bucket queue). Commits the path's demand and returns the edges used, or
/// `None` if the target cannot be reached.
fn maze_route(
    map: &mut CongestionMap,
    a: GCell,
    b: GCell,
    margin: usize,
    scratch: &mut MazeScratch,
    stats: &mut RouteStats,
) -> Option<f64> {
    let (x0, y0, x1, y1) = maze_window(map, a, b, margin);
    let w = x1 - x0 + 1;
    let h = y1 - y0 + 1;
    // Window node (i, j) sits at padded index (j − y0 + 1)·stride + (i − x0 + 1).
    let stride = w + 2;
    let idx = |c: GCell| (c.1 - y0 + 1) * stride + (c.0 - x0 + 1);
    let padded = stride * (h + 2);
    scratch.dist.clear();
    scratch.dist.resize(padded, 0);
    scratch.prev.resize(padded, 0);
    scratch.east_cost.resize(padded, 0);
    scratch.north_cost.resize(padded, 0);
    for j in 0..h {
        let row = (j + 1) * stride + 1;
        scratch.dist[row..row + w].fill(UNREACHED);
        scratch.east_cost[row..row + w - 1].copy_from_slice(map.h_cost_row(x0, y0 + j, w - 1));
        if j + 1 < h {
            scratch.north_cost[row..row + w].copy_from_slice(map.v_cost_row(x0, y0 + j, w));
        }
    }
    scratch.clear_queue();

    let start = idx(a);
    let target = idx(b);
    scratch.dist[start] = 0;
    scratch.push(start, 0);
    let mut settled = 0u64;
    let mut reached = false;
    let mut cost = 0u32;
    'search: while let Some(next) = scratch.next_cost(cost) {
        cost = next;
        let bucket = cost as usize % BUCKETS;
        while let Some(u) = scratch.buckets[bucket].pop() {
            let u = u as usize;
            if scratch.dist[u] != cost {
                continue;
            }
            settled += 1;
            if u == target {
                reached = true;
                break 'search;
            }
            let edges = [
                (u + 1, scratch.east_cost[u]),
                (u - 1, scratch.east_cost[u - 1]),
                (u + stride, scratch.north_cost[u]),
                (u - stride, scratch.north_cost[u - stride]),
            ];
            for (v, edge) in edges {
                let through = cost + u32::from(edge);
                if through < scratch.dist[v] {
                    scratch.dist[v] = through;
                    scratch.prev[v] = u as u32;
                    scratch.push(v, through);
                }
            }
        }
        scratch.nonempty[bucket / 64] &= !(1 << (bucket % 64));
    }
    stats.maze_window_nodes += (w * h) as u64;
    stats.maze_settled_nodes += settled;
    if !reached {
        return None;
    }
    // Walk back, committing demand.
    let mut len = 0.0;
    let mut cur = target;
    while cur != start {
        let p = scratch.prev[cur] as usize;
        let (i, j) = (x0 + p.min(cur) % stride - 1, y0 + p.min(cur) / stride - 1);
        if cur.abs_diff(p) == 1 {
            map.add_h(i, j, 1.0);
        } else {
            map.add_v(i, j, 1.0);
        }
        len += 1.0;
        cur = p;
    }
    Some(len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region() -> Rect {
        Rect::new(0.0, 0.0, 100.0, 100.0)
    }

    fn opts() -> RouterOptions {
        RouterOptions {
            gcell_size: 10.0,
            tracks_per_layer: 2,
            layers_per_direction: 1,
            maze_fallback: true,
            maze_margin: 4,
        }
    }

    #[test]
    fn two_pin_net_length_is_manhattan() {
        let nets = vec![vec![(5.0, 5.0), (45.0, 35.0)]];
        let r = route_nets(&nets, region(), &opts()).expect("routable");
        // (0,0) → (4,3): 7 edges × 10 µm.
        assert_eq!(r.wirelength, 70.0);
        assert_eq!(r.mazed_segments, 0);
        assert!((r.hpwl - 70.0).abs() < 1e-9);
        assert!((r.detour_factor() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn multi_pin_net_uses_mst() {
        // Three collinear pins: MST length = span, not star.
        let nets = vec![vec![(5.0, 5.0), (55.0, 5.0), (95.0, 5.0)]];
        let r = route_nets(&nets, region(), &opts()).expect("routable");
        assert_eq!(r.wirelength, 90.0);
    }

    #[test]
    fn congestion_accumulates_and_maze_avoids_hotspots() {
        // Saturate a horizontal corridor, then route one more net across it.
        let mut nets = Vec::new();
        for _ in 0..4 {
            nets.push(vec![(5.0, 55.0), (95.0, 55.0)]);
        }
        let r = route_nets(&nets, region(), &opts()).expect("routable");
        // Capacity 2/edge: 4 straight routes must overflow or detour.
        assert!(
            r.mazed_segments > 0 || r.congestion.overflow_edges() > 0,
            "mazed {} overflow {}",
            r.mazed_segments,
            r.congestion.overflow_edges()
        );
        assert!(r.congestion.max_utilization() > 0.9);
    }

    #[test]
    fn maze_detour_increases_wirelength() {
        let mut nets = Vec::new();
        for _ in 0..8 {
            nets.push(vec![(5.0, 55.0), (95.0, 55.0)]);
        }
        let r = route_nets(&nets, region(), &opts()).expect("routable");
        assert!(r.detour_factor() >= 1.0);
        assert!(r.wirelength >= 8.0 * 90.0);
    }

    #[test]
    fn nan_pin_is_a_typed_error() {
        let nets = vec![vec![(5.0, 5.0), (f64::NAN, 35.0)]];
        let err = route_nets(&nets, region(), &opts()).expect_err("NaN pin must be rejected");
        assert_eq!(err, RouteError::NonFinitePin { net: 0 });
    }

    #[test]
    fn single_pin_nets_are_free() {
        let nets = vec![vec![(5.0, 5.0)]];
        let r = route_nets(&nets, region(), &opts()).expect("routable");
        assert_eq!(r.wirelength, 0.0);
    }

    #[test]
    fn mazed_routing_is_repeatable_and_counted() {
        // Capacity 2 per edge and eight nets down one corridor: most maze.
        let mut nets: Vec<Vec<(f64, f64)>> =
            (0..8).map(|_| vec![(5.0, 55.0), (95.0, 55.0)]).collect();
        nets.push(vec![(15.0, 5.0), (85.0, 95.0), (45.0, 45.0), (5.0, 85.0)]);
        let (first, stats) = route_nets_counted(&nets, region(), &[], &opts()).expect("routable");
        let (second, again) = route_nets_counted(&nets, region(), &[], &opts()).expect("routable");
        assert_eq!(first, second);
        assert_eq!(stats, again);
        assert!(stats.mazed_segments > 0, "{stats:?}");
        assert_eq!(stats.mazed_segments as usize, first.mazed_segments);
        assert_eq!(stats.pattern_segments + stats.mazed_segments, 8 + 3);
        assert!(stats.maze_settled_nodes >= 2 * stats.mazed_segments);
        assert!(
            stats.maze_settled_nodes <= stats.maze_window_nodes,
            "{stats:?}"
        );
    }

    #[test]
    fn deterministic() {
        let nets = vec![
            vec![(5.0, 5.0), (95.0, 95.0)],
            vec![(15.0, 85.0), (85.0, 15.0)],
            vec![(50.0, 5.0), (50.0, 95.0), (5.0, 50.0)],
        ];
        let a = route_nets(&nets, region(), &opts()).expect("routable");
        let b = route_nets(&nets, region(), &opts()).expect("routable");
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod blockage_tests {
    use super::*;

    #[test]
    fn derated_region_congests_sooner() {
        let region = Rect::new(0.0, 0.0, 100.0, 100.0);
        let opts = RouterOptions {
            gcell_size: 10.0,
            tracks_per_layer: 4,
            layers_per_direction: 1,
            maze_fallback: false,
            maze_margin: 4,
        };
        let nets: Vec<Vec<(f64, f64)>> = (0..3).map(|_| vec![(5.0, 55.0), (95.0, 55.0)]).collect();
        let open = route_nets(&nets, region, &opts).expect("routable");
        let blocked =
            route_nets_with_blockages(&nets, region, &[Rect::new(30.0, 40.0, 40.0, 30.0)], &opts)
                .expect("routable");
        assert!(
            blocked.congestion.max_utilization() > open.congestion.max_utilization(),
            "derated capacity should raise utilization: {} vs {}",
            blocked.congestion.max_utilization(),
            open.congestion.max_utilization()
        );
    }
}

#[cfg(test)]
mod degenerate_grid_tests {
    use super::*;

    fn opts() -> RouterOptions {
        RouterOptions {
            gcell_size: 10.0,
            tracks_per_layer: 1,
            layers_per_direction: 1,
            maze_fallback: true,
            maze_margin: 4,
        }
    }

    #[test]
    fn one_column_region_with_a_blockage_routes() {
        // 5 µm wide at 10 µm GCells: a 1 × 10 grid with no horizontal edges.
        let region = Rect::new(0.0, 0.0, 5.0, 100.0);
        let nets: Vec<Vec<(f64, f64)>> = (0..3).map(|_| vec![(2.0, 5.0), (3.0, 95.0)]).collect();
        let blockage = Rect::new(0.0, 20.0, 5.0, 40.0);
        let r = route_nets_with_blockages(&nets, region, &[blockage], &opts()).expect("routable");
        assert_eq!((r.congestion.nx(), r.congestion.ny()), (1, 10));
        assert_eq!(r.wirelength, 3.0 * 90.0);
        assert_eq!(r.congestion.overflow_edges(), 9);
    }

    #[test]
    fn one_row_region_with_a_blockage_routes() {
        let region = Rect::new(0.0, 0.0, 100.0, 5.0);
        let nets: Vec<Vec<(f64, f64)>> = (0..3).map(|_| vec![(5.0, 2.0), (95.0, 3.0)]).collect();
        let blockage = Rect::new(20.0, 0.0, 40.0, 5.0);
        let r = route_nets_with_blockages(&nets, region, &[blockage], &opts()).expect("routable");
        assert_eq!((r.congestion.nx(), r.congestion.ny()), (10, 1));
        assert_eq!(r.wirelength, 3.0 * 90.0);
    }
}

/// The maze against a reference: a plain heap Dijkstra over the same
/// cached integer costs, on small random maps.
#[cfg(test)]
mod maze_oracle_tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Cost of the cheapest `a`→`b` path inside the maze's window.
    fn oracle_cost(map: &CongestionMap, a: GCell, b: GCell, margin: usize) -> Option<u32> {
        let (x0, y0, x1, y1) = maze_window(map, a, b, margin);
        let mut dist = vec![u32::MAX; map.nx() * map.ny()];
        let at = |c: GCell| c.1 * map.nx() + c.0;
        let mut heap = BinaryHeap::new();
        dist[at(a)] = 0;
        heap.push(Reverse((0u32, a)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if u == b {
                return Some(d);
            }
            if d > dist[at(u)] {
                continue;
            }
            let (i, j) = u;
            let mut next = Vec::new();
            if i > x0 {
                next.push(((i - 1, j), map.h_cost_row(i - 1, j, 1)[0]));
            }
            if i < x1 {
                next.push(((i + 1, j), map.h_cost_row(i, j, 1)[0]));
            }
            if j > y0 {
                next.push(((i, j - 1), map.v_cost_row(i, j - 1, 1)[0]));
            }
            if j < y1 {
                next.push(((i, j + 1), map.v_cost_row(i, j, 1)[0]));
            }
            for (v, cost) in next {
                let nd = d + u32::from(cost);
                if nd < dist[at(v)] {
                    dist[at(v)] = nd;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        None
    }

    /// Every edge whose demand differs between the two maps, as
    /// `(west/south endpoint, east/north endpoint, demand added, cost in `before`)`.
    fn changed_edges(
        before: &CongestionMap,
        after: &CongestionMap,
    ) -> Vec<(GCell, GCell, f64, u32)> {
        let mut edges = Vec::new();
        for j in 0..before.ny() {
            for i in 0..before.nx() {
                if i + 1 < before.nx() && after.h_demand(i, j) != before.h_demand(i, j) {
                    let added = after.h_demand(i, j) - before.h_demand(i, j);
                    let cost = u32::from(before.h_cost_row(i, j, 1)[0]);
                    edges.push(((i, j), (i + 1, j), added, cost));
                }
                if j + 1 < before.ny() && after.v_demand(i, j) != before.v_demand(i, j) {
                    let added = after.v_demand(i, j) - before.v_demand(i, j);
                    let cost = u32::from(before.v_cost_row(i, j, 1)[0]);
                    edges.push(((i, j), (i, j + 1), added, cost));
                }
            }
        }
        edges
    }

    /// Routes `a`→`b` through the maze and checks the committed path
    /// against the oracle and the window.
    fn check_maze(
        map: &mut CongestionMap,
        a: GCell,
        b: GCell,
        margin: usize,
        scratch: &mut MazeScratch,
    ) {
        let before = map.clone();
        let mut stats = RouteStats::default();
        let len = maze_route(map, a, b, margin, scratch, &mut stats)
            .expect("the window is a connected grid");
        let mut edges = changed_edges(&before, map);
        assert_eq!(edges.len() as f64, len, "a shortest path repeats no edge");
        assert!(
            edges.iter().all(|e| e.2 == 1.0),
            "one track per edge: {edges:?}"
        );
        let path_cost: u32 = edges.iter().map(|e| e.3).sum();
        assert_eq!(Some(path_cost), oracle_cost(&before, a, b, margin));

        // The changed edges chain 4-connectedly from `a` to `b` in the window.
        let (x0, y0, x1, y1) = maze_window(&before, a, b, margin);
        let mut cur = a;
        while let Some(k) = edges.iter().position(|e| e.0 == cur || e.1 == cur) {
            let (lo, hi, ..) = edges.swap_remove(k);
            cur = if lo == cur { hi } else { lo };
            assert!((x0..=x1).contains(&cur.0) && (y0..=y1).contains(&cur.1));
        }
        assert_eq!(cur, b);
        assert!(edges.is_empty(), "edges off the path: {edges:?}");
        assert_eq!(
            stats.maze_window_nodes as usize,
            (x1 - x0 + 1) * (y1 - y0 + 1)
        );
        assert!(stats.maze_settled_nodes as f64 > len);
        assert!(stats.maze_settled_nodes <= stats.maze_window_nodes);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn maze_path_cost_matches_heap_dijkstra(
            dims in (1usize..=12, 1usize..=12),
            demand in prop::collection::vec((0usize..12, 0usize..12, 0usize..2, 0usize..7), 0..160),
            derates in prop::collection::vec((0usize..12, 0usize..12, 0usize..12, 0usize..12), 0..3),
            segments in prop::collection::vec((0usize..144, 0usize..143, 0usize..5), 1..6),
        ) {
            let (nx, ny) = if dims == (1, 1) { (1, 2) } else { dims };
            let mut map = CongestionMap::new(nx, ny, 1.0, 4.0, 4.0);
            for (i0, j0, i1, j1) in derates {
                map.derate(i0.min(i1) % nx, j0.min(j1) % ny, i0.max(i1) % nx, j0.max(j1) % ny, 0.4);
            }
            for (i, j, vertical, amount) in demand {
                if vertical == 0 && nx > 1 {
                    map.add_h(i % (nx - 1), j % ny, amount as f64);
                } else if vertical == 1 && ny > 1 {
                    map.add_v(i % nx, j % (ny - 1), amount as f64);
                }
            }
            // One scratch across the case's searches: nothing may leak
            // from one into the next.
            let mut scratch = MazeScratch::new();
            let cells = nx * ny;
            for (from, step, margin) in segments {
                let (from, to) = (from % cells, (from % cells + 1 + step % (cells - 1)) % cells);
                check_maze(&mut map, (from % nx, from / nx), (to % nx, to / nx), margin, &mut scratch);
            }
        }
    }
}

#[cfg(test)]
mod steiner_tests {
    use super::*;

    #[test]
    fn three_pin_steiner_beats_mst_on_an_l() {
        // Pins at the corners of an L: MST length 2·10 gcells; Steiner via
        // the median point also 20 — but for a T shape Steiner wins.
        let region = Rect::new(0.0, 0.0, 200.0, 200.0);
        let opts = RouterOptions {
            gcell_size: 10.0,
            ..Default::default()
        };
        // T shape: pins at (0,10), (20,10), (10,0) in gcells.
        let nets = vec![vec![(5.0, 105.0), (195.0, 105.0), (105.0, 5.0)]];
        let r = route_nets(&nets, region, &opts).expect("routable");
        // Steiner point (10,10): total = 10 + 9 + 10 = 29 edges = 290 µm.
        // An MST would pay 10 + (10+10) = ... ≥ 29; exact check:
        assert_eq!(r.wirelength, 290.0);
    }

    #[test]
    fn three_collinear_pins_unchanged() {
        let region = Rect::new(0.0, 0.0, 200.0, 200.0);
        let opts = RouterOptions {
            gcell_size: 10.0,
            ..Default::default()
        };
        let nets = vec![vec![(5.0, 5.0), (105.0, 5.0), (195.0, 5.0)]];
        let r = route_nets(&nets, region, &opts).expect("routable");
        assert_eq!(r.wirelength, 190.0);
    }
}
