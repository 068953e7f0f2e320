//! Net decomposition and GCell routing.

use crate::congestion::{CongestionMap, MAX_EDGE_COST};
use crate::error::RouteError;
use cp_netlist::floorplan::Floorplan;
use cp_netlist::netlist::{Netlist, PinRef};
use cp_netlist::NetId;

/// The router's settings: none. The grid is not among them either —
/// [`route_placed_netlist`] routes on [`CongestionMap::for_design`], and
/// [`route_nets`] on whatever grid its caller built. The struct stays
/// only because `route_placed_netlist`'s signature is pinned.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RouterOptions;

/// Margin (in GCells) around a segment's bbox for the maze's window.
const MAZE_MARGIN: usize = 8;

/// The routing outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingResult {
    /// Routed wirelength in µm (GCell path length).
    pub wirelength: f64,
    /// Sum of net HPWLs in µm (for the detour factor).
    pub hpwl: f64,
    /// Edge demand/capacity map.
    pub congestion: CongestionMap,
    /// Segments that went to the maze stage because both of their
    /// L-shapes cross an edge at or over capacity, whether the stage then
    /// answered them with its monotone staircase or with a search.
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

/// Routes a set of nets given as pin-position lists onto `grid`, which
/// comes back as the result's congestion map. Pins map to GCells with
/// [`CongestionMap::gcell_of`].
///
/// Three-pin nets route to their Steiner (median) point, larger nets are
/// decomposed over a Manhattan-distance Prim MST; each two-pin segment
/// takes the less congested L-shape, or, when both L-shapes cross a full
/// edge, a cheapest path within the segment bbox plus 8 GCells: the
/// cheapest monotone staircase unless a search finds a cheaper detour.
///
/// # Errors
///
/// Returns [`RouteError::NonFinitePin`] if any pin coordinate is NaN or
/// infinite (such a pin cannot be mapped to a GCell).
pub fn route_nets(
    nets: &[Vec<(f64, f64)>],
    grid: CongestionMap,
) -> Result<RoutingResult, RouteError> {
    route_nets_counted(nets.len(), |ni| nets[ni].as_slice(), grid).map(|(routed, _)| routed)
}

/// Work counts of one routing call, published on the `route.global` span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct RouteStats {
    /// Two-pin segments that took an L-shape (same-GCell segments are
    /// not routed and not counted).
    pattern_segments: u64,
    /// Segments that went to the maze stage: certified plus searched.
    mazed_segments: u64,
    /// GCells inside the search windows of all maze calls.
    maze_window_nodes: u64,
    /// GCells inside the segment bboxes of all maze calls (the extent of
    /// the staircase tables).
    maze_bbox_nodes: u64,
    /// Maze calls whose staircase met the cut lower bound: no search.
    maze_certified: u64,
    /// Maze calls that ran the search.
    maze_searched: u64,
    /// Searches that found a path cheaper than the staircase.
    maze_improved: u64,
    /// GCells the searches settled (none for a certified call).
    maze_settled_nodes: u64,
}

impl RouteStats {
    fn entries(&self) -> [(&'static str, u64); 9] {
        [
            (
                "route.segments",
                self.pattern_segments + self.mazed_segments,
            ),
            ("route.pattern_segments", self.pattern_segments),
            ("route.mazed_segments", self.mazed_segments),
            ("route.maze.window_nodes", self.maze_window_nodes),
            ("route.maze.bbox_nodes", self.maze_bbox_nodes),
            ("route.maze.certified", self.maze_certified),
            ("route.maze.searched", self.maze_searched),
            ("route.maze.improved", self.maze_improved),
            ("route.maze.settled_nodes", self.maze_settled_nodes),
        ]
    }
}

type GCell = (usize, usize);

/// The body of [`route_nets`], also returning work counts: routes the
/// `net_count` nets whose pin positions `net(ni)` hands out.
fn route_nets_counted<'a>(
    net_count: usize,
    net: impl Fn(usize) -> &'a [(f64, f64)],
    mut map: CongestionMap,
) -> Result<(RoutingResult, RouteStats), RouteError> {
    for ni in 0..net_count {
        if net(ni)
            .iter()
            .any(|&(x, y)| !x.is_finite() || !y.is_finite())
        {
            return Err(RouteError::NonFinitePin { net: ni });
        }
    }
    let gcell = map.gcell_size();

    // Route small-bbox nets first (they have the least flexibility).
    let bbox_hp: Vec<f64> = (0..net_count)
        .map(|ni| {
            let (mut lx, mut ly, mut hx, mut hy) = (f64::MAX, f64::MAX, f64::MIN, f64::MIN);
            for &(x, y) in net(ni) {
                lx = lx.min(x);
                ly = ly.min(y);
                hx = hx.max(x);
                hy = hy.max(y);
            }
            (hx - lx) + (hy - ly)
        })
        .collect();
    let mut order: Vec<usize> = (0..net_count).collect();
    order.sort_by(|&a, &b| bbox_hp[a].total_cmp(&bbox_hp[b]));

    let mut wirelength = 0.0;
    let mut hpwl = 0.0;
    let mut stats = RouteStats::default();
    // Working storage of this call, reused across nets and segments.
    let mut cells: Vec<GCell> = Vec::new();
    let mut mst = MstScratch::default();
    let mut maze = MazeScratch::new();
    for &ni in &order {
        let pins = net(ni);
        if pins.len() < 2 {
            continue;
        }
        hpwl += bbox_hp[ni];
        cells.clear();
        cells.extend(pins.iter().map(|&(x, y)| map.gcell_of(x, y)));
        mst_segments(&cells, &mut mst);
        for &(a, b) in &mst.segments {
            if a == b {
                continue;
            }
            let len = route_segment(&mut map, a, b, MAZE_MARGIN, &mut maze, &mut stats);
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
/// cells then ports) on its design grid, [`CongestionMap::for_design`].
/// Clock nets are skipped — CTS owns them.
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
    _options: &RouterOptions,
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
    // The routed nets' pin positions in net order, as one CSR array: the
    // `k`-th routed net's pins are `pins[start[k]..start[k + 1]]`.
    let routed_nets = || {
        netlist
            .nets()
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.is_clock)
    };
    let mut pins: Vec<(f64, f64)> =
        Vec::with_capacity(routed_nets().map(|(_, n)| n.pin_count()).sum());
    let mut start: Vec<usize> = Vec::with_capacity(netlist.net_count() + 1);
    start.push(0);
    for (i, net) in routed_nets() {
        pins.extend(
            net.driver
                .iter()
                .chain(netlist.sinks(NetId(i as u32)))
                .map(|p| {
                    let v = match *p {
                        PinRef::Cell { cell, .. } => netlist.cell_vertex(cell),
                        PinRef::Port(port) => netlist.port_vertex(port),
                    };
                    positions[v as usize]
                }),
        );
        start.push(pins.len());
    }
    let net = |k: usize| &pins[start[k]..start[k + 1]];
    let grid = CongestionMap::for_design(netlist, floorplan);
    let (routed, stats) = route_nets_counted(start.len() - 1, net, grid)?;
    if cp_trace::enabled() {
        for (name, count) in stats.entries() {
            span.arg(name, cp_trace::ArgValue::U(count));
            cp_trace::counter_add(name, count);
        }
        let grid = &routed.congestion;
        span.arg(
            "route.overflow_edges",
            cp_trace::ArgValue::U(grid.overflow_edges() as u64),
        );
        span.arg(
            "route.max_utilization",
            cp_trace::ArgValue::F(grid.max_utilization()),
        );
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
/// A segment whose two L-shapes both cross an edge at or over capacity
/// goes to the maze stage, windowed to its bbox plus `margin` GCells.
fn route_segment(
    map: &mut CongestionMap,
    a: GCell,
    b: GCell,
    margin: usize,
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
    if worst >= 1.0 {
        stats.mazed_segments += 1;
        return maze_route(map, a, b, margin, maze, stats);
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

/// Working storage of [`maze_route`], owned by one routing call and reused
/// by every maze call in it.
struct MazeScratch {
    /// Cheapest horizontal edge across each column cut of the window:
    /// entry `i` is the minimum, over the window's rows, of the cost of
    /// stepping from window column `i` to `i + 1`.
    col_min: Vec<u16>,
    /// Cheapest vertical edge across each row cut of the window.
    row_min: Vec<u16>,
    /// The cut potential towards the target, per window column and per
    /// window row: `toward_x[i] + toward_y[j]` sums the cut minima between
    /// window node `(i, j)` and the target, which every path between the
    /// two pays at least once each.
    toward_x: Vec<u32>,
    toward_y: Vec<u32>,
    /// Cost of the cheapest monotone path from the source to each node of
    /// the segment's bbox, row-major in travel order: entry `r · bw + c`
    /// is the node `c` columns and `r` rows from the source towards the
    /// target.
    staircase: Vec<u32>,
    /// The search's per-node arrays cover the window plus a one-node
    /// ring, row-major with the padded width as the stride. `dist` is the
    /// path cost of a reached node and, until it is reached, the cost a
    /// path must stay below there to still beat the staircase; 0 on the
    /// ring, so nothing relaxes into it and the search needs no bounds
    /// tests.
    dist: Vec<u32>,
    /// Predecessor on the cheapest known path; meaningful for reached
    /// nodes only.
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

/// The maze's search window `(x0, y0, x1, y1)`, inclusive.
type Window = (usize, usize, usize, usize);

impl MazeScratch {
    fn new() -> Self {
        Self {
            col_min: Vec::new(),
            row_min: Vec::new(),
            toward_x: Vec::new(),
            toward_y: Vec::new(),
            staircase: Vec::new(),
            dist: Vec::new(),
            prev: Vec::new(),
            east_cost: Vec::new(),
            north_cost: Vec::new(),
            buckets: vec![Vec::new(); BUCKETS],
            nonempty: [0; BUCKET_WORDS],
        }
    }

    /// The cut lower bound on any `a`→`b` path inside `window`, leaving
    /// the potential towards `b` in `toward_x` / `toward_y`.
    ///
    /// A path from `u` to `b` crosses every column cut between their
    /// columns and every row cut between their rows, each at no less than
    /// the cut's cheapest edge, and no edge lies on two cuts: the potential
    /// never exceeds the cheapest remaining cost (admissible), and it
    /// changes by at most the edge's cost along any edge (consistent).
    fn cut_bound(&mut self, map: &CongestionMap, window: Window, a: GCell, b: GCell) -> u32 {
        let (x0, y0, x1, y1) = window;
        let w = x1 - x0 + 1;
        self.col_min.clear();
        self.col_min.resize(w - 1, u16::MAX);
        self.row_min.clear();
        for j in y0..=y1 {
            for (min, &cost) in self.col_min.iter_mut().zip(map.h_cost_row(x0, j, w - 1)) {
                *min = (*min).min(cost);
            }
            if j < y1 {
                let cheapest = map
                    .v_cost_row(x0, j, w)
                    .iter()
                    .fold(u16::MAX, |m, &c| m.min(c));
                self.row_min.push(cheapest);
            }
        }
        cut_potential(&self.col_min, b.0 - x0, &mut self.toward_x);
        cut_potential(&self.row_min, b.1 - y0, &mut self.toward_y);
        self.toward_x[a.0 - x0] + self.toward_y[a.1 - y0]
    }

    /// Fills `staircase` for the bbox of `a` and `b`; returns the cost of
    /// the cheapest monotone `a`→`b` path (every L and Z is one).
    fn staircase_bound(&mut self, map: &CongestionMap, a: GCell, b: GCell) -> u32 {
        let (bw, bh) = (a.0.abs_diff(b.0) + 1, a.1.abs_diff(b.1) + 1);
        let (bx0, east, north) = (a.0.min(b.0), a.0 <= b.0, a.1 <= b.1);
        self.staircase.resize(bw * bh, 0);
        let row_y = |r: usize| if north { a.1 + r } else { a.1 - r };
        // The source's row: straight along it.
        let mut reach = 0u32;
        self.staircase[0] = 0;
        let first = map.h_cost_row(bx0, a.1, bw - 1);
        for (c, cell) in self.staircase[1..bw].iter_mut().enumerate() {
            reach += u32::from(first[if east { c } else { bw - 2 - c }]);
            *cell = reach;
        }
        for r in 1..bh {
            let (above, row) = self.staircase[(r - 1) * bw..(r + 1) * bw].split_at_mut(bw);
            let along = map.h_cost_row(bx0, row_y(r), bw - 1);
            let up = map.v_cost_row(bx0, row_y(r).min(row_y(r - 1)), bw);
            if east {
                staircase_row(above, row, along.iter(), up.iter());
            } else {
                staircase_row(above, row, along.iter().rev(), up.iter().rev());
            }
        }
        self.staircase[bw * bh - 1]
    }

    /// Commits the staircase [`Self::staircase_bound`] found, walking its
    /// table back from `b`; returns the edges used.
    ///
    /// Among equally cheap predecessors the walk steps along the axis
    /// with the larger share of its distance still to go, so the path
    /// hugs the `a`–`b` diagonal: a fixed preference would turn every tie
    /// into the same L and pile demand on the bbox's border.
    fn commit_staircase(&self, map: &mut CongestionMap, a: GCell, b: GCell) -> f64 {
        let (bw, bh) = (a.0.abs_diff(b.0) + 1, a.1.abs_diff(b.1) + 1);
        let col_x = |c: usize| if a.0 <= b.0 { a.0 + c } else { a.0 - c };
        let row_y = |r: usize| if a.1 <= b.1 { a.1 + r } else { a.1 - r };
        let (mut c, mut r) = (bw - 1, bh - 1);
        while c + r > 0 {
            let (x, y) = (col_x(c), row_y(r));
            let here = self.staircase[r * bw + c];
            let along = (c > 0).then(|| {
                let edge = map.h_cost_row(x.min(col_x(c - 1)), y, 1)[0];
                self.staircase[r * bw + c - 1] + u32::from(edge)
            });
            let up = (r > 0).then(|| {
                let edge = map.v_cost_row(x, y.min(row_y(r - 1)), 1)[0];
                self.staircase[(r - 1) * bw + c] + u32::from(edge)
            });
            debug_assert_eq!(Some(here), along.into_iter().chain(up).min());
            let horizontal = match (along, up) {
                (Some(along), Some(up)) => {
                    along < up || (along == up && c * (bh - 1) >= r * (bw - 1))
                }
                _ => up.is_none(),
            };
            if horizontal {
                map.add_h(x.min(col_x(c - 1)), y, 1.0);
                c -= 1;
            } else {
                map.add_v(x, y.min(row_y(r - 1)), 1.0);
                r -= 1;
            }
        }
        (bw - 1 + bh - 1) as f64
    }

    /// Dial's algorithm (Dijkstra with a bucket queue) from `a`, confined
    /// to the paths that can still cost less than `bound`: a node's `dist`
    /// starts at `bound` minus its cut potential instead of at infinity,
    /// so the one relaxation compare also rejects a node no path cheaper
    /// than `bound` passes through. Such a path has cost-so-far plus
    /// potential below `bound` at every node on it, so it is never cut.
    ///
    /// If `b` settles (necessarily below `bound`) the path found is
    /// committed and its edge count returned; `None` means no path is
    /// cheaper than `bound`. Adds the nodes settled to `settled`.
    fn search_below(
        &mut self,
        map: &mut CongestionMap,
        window: Window,
        a: GCell,
        b: GCell,
        bound: u32,
        settled: &mut u64,
    ) -> Option<f64> {
        let (x0, y0, x1, y1) = window;
        let (w, h) = (x1 - x0 + 1, y1 - y0 + 1);
        // Window node (i, j) sits at padded index (j − y0 + 1)·stride + (i − x0 + 1).
        let stride = w + 2;
        let idx = |c: GCell| (c.1 - y0 + 1) * stride + (c.0 - x0 + 1);
        let padded = stride * (h + 2);
        self.dist.clear();
        self.dist.resize(padded, 0);
        self.prev.resize(padded, 0);
        self.east_cost.resize(padded, 0);
        self.north_cost.resize(padded, 0);
        for j in 0..h {
            let row = (j + 1) * stride + 1;
            let toward_y = self.toward_y[j];
            for (limit, &toward_x) in self.dist[row..row + w].iter_mut().zip(&self.toward_x) {
                *limit = bound.saturating_sub(toward_x + toward_y);
            }
            self.east_cost[row..row + w - 1].copy_from_slice(map.h_cost_row(x0, y0 + j, w - 1));
            if j + 1 < h {
                self.north_cost[row..row + w].copy_from_slice(map.v_cost_row(x0, y0 + j, w));
            }
        }
        self.clear_queue();

        let start = idx(a);
        let target = idx(b);
        self.dist[start] = 0;
        self.push(start, 0);
        let mut reached = false;
        let mut cost = 0u32;
        'search: while let Some(next) = self.next_cost(cost) {
            cost = next;
            let bucket = cost as usize % BUCKETS;
            while let Some(u) = self.buckets[bucket].pop() {
                let u = u as usize;
                if self.dist[u] != cost {
                    continue;
                }
                *settled += 1;
                if u == target {
                    reached = true;
                    break 'search;
                }
                let edges = [
                    (u + 1, self.east_cost[u]),
                    (u - 1, self.east_cost[u - 1]),
                    (u + stride, self.north_cost[u]),
                    (u - stride, self.north_cost[u - stride]),
                ];
                for (v, edge) in edges {
                    let through = cost + u32::from(edge);
                    if through < self.dist[v] {
                        self.dist[v] = through;
                        self.prev[v] = u as u32;
                        self.push(v, through);
                    }
                }
            }
            self.nonempty[bucket / 64] &= !(1 << (bucket % 64));
        }
        if !reached {
            return None;
        }
        debug_assert!(cost < bound, "settled b at {cost}, not below {bound}");
        // Walk back, committing demand.
        let mut len = 0usize;
        let mut cur = target;
        while cur != start {
            debug_assert!(len < w * h, "prev does not lead back to a");
            let p = self.prev[cur] as usize;
            let (i, j) = (x0 + p.min(cur) % stride - 1, y0 + p.min(cur) / stride - 1);
            if cur.abs_diff(p) == 1 {
                map.add_h(i, j, 1.0);
            } else {
                map.add_v(i, j, 1.0);
            }
            len += 1;
            cur = p;
        }
        Some(len as f64)
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

/// `out[k]` = the sum of the cut minima between position `k` and `target`
/// along one axis (`mins[k]` is the cut between positions `k` and `k + 1`).
fn cut_potential(mins: &[u16], target: usize, out: &mut Vec<u32>) {
    out.clear();
    out.push(0);
    let mut sum = 0u32;
    out.extend(mins.iter().map(|&m| {
        sum += u32::from(m);
        sum
    }));
    let at_target = out[target];
    for p in out.iter_mut() {
        *p = p.abs_diff(at_target);
    }
}

/// One row of the staircase table from the row before it: a node is
/// entered along its row (edge costs `along`, in travel order) or from the
/// previous row (`up`, one edge per node).
fn staircase_row<'a>(
    above: &[u32],
    row: &mut [u32],
    along: impl Iterator<Item = &'a u16>,
    mut up: impl Iterator<Item = &'a u16>,
) {
    let Some(&first_up) = up.next() else { return };
    let mut reach = above[0] + u32::from(first_up);
    row[0] = reach;
    for (((cell, &above), &along), &up) in row[1..].iter_mut().zip(&above[1..]).zip(along).zip(up) {
        reach = (reach + u32::from(along)).min(above + u32::from(up));
        *cell = reach;
    }
}

/// The maze's search window: the segment bbox grown by `margin` GCells
/// and clipped to the grid.
fn maze_window(map: &CongestionMap, a: GCell, b: GCell, margin: usize) -> Window {
    (
        a.0.min(b.0).saturating_sub(margin),
        a.1.min(b.1).saturating_sub(margin),
        (a.0.max(b.0) + margin).min(map.nx() - 1),
        (a.1.max(b.1) + margin).min(map.ny() - 1),
    )
}

/// Commits a cheapest `a`→`b` path inside the segment bbox plus margin,
/// under the map's cached integer edge costs, and returns the edges used.
/// The window is a connected grid, so there always is one.
///
/// Bound first, search only for what could beat the bound: the cheapest
/// monotone staircase over the bbox costs `bound`, the window's cuts
/// between `a` and `b` cost at least `lower`. When the two meet the
/// staircase is a cheapest path and no queue is touched; otherwise Dial's
/// algorithm looks for a path cheaper than `bound` only, and the staircase
/// is committed when there is none. The committed cost is the window's
/// shortest-path cost in all three outcomes.
fn maze_route(
    map: &mut CongestionMap,
    a: GCell,
    b: GCell,
    margin: usize,
    scratch: &mut MazeScratch,
    stats: &mut RouteStats,
) -> f64 {
    let window = maze_window(map, a, b, margin);
    let (x0, y0, x1, y1) = window;
    stats.maze_window_nodes += ((x1 - x0 + 1) * (y1 - y0 + 1)) as u64;
    stats.maze_bbox_nodes += ((a.0.abs_diff(b.0) + 1) * (a.1.abs_diff(b.1) + 1)) as u64;
    let lower = scratch.cut_bound(map, window, a, b);
    let bound = scratch.staircase_bound(map, a, b);
    debug_assert!(lower <= bound, "cut bound {lower} above a path of {bound}");
    let len = if lower >= bound {
        stats.maze_certified += 1;
        scratch.commit_staircase(map, a, b)
    } else {
        stats.maze_searched += 1;
        match scratch.search_below(map, window, a, b, bound, &mut stats.maze_settled_nodes) {
            Some(len) => {
                stats.maze_improved += 1;
                len
            }
            None => scratch.commit_staircase(map, a, b),
        }
    };
    debug_assert!(len >= (a.0.abs_diff(b.0) + a.1.abs_diff(b.1)) as f64);
    len
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_netlist::floorplan::Rect;

    /// 10 × 10 GCells of 10 µm, two tracks per edge.
    fn grid() -> CongestionMap {
        CongestionMap::new(Rect::new(0.0, 0.0, 100.0, 100.0), 10.0, 2.0)
    }

    #[test]
    fn two_pin_net_length_is_manhattan() {
        let nets = vec![vec![(5.0, 5.0), (45.0, 35.0)]];
        let r = route_nets(&nets, grid()).expect("routable");
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
        let r = route_nets(&nets, grid()).expect("routable");
        assert_eq!(r.wirelength, 90.0);
    }

    #[test]
    fn congestion_accumulates_and_maze_avoids_hotspots() {
        // Saturate a horizontal corridor, then route one more net across it.
        let mut nets = Vec::new();
        for _ in 0..4 {
            nets.push(vec![(5.0, 55.0), (95.0, 55.0)]);
        }
        let r = route_nets(&nets, grid()).expect("routable");
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
        let r = route_nets(&nets, grid()).expect("routable");
        assert!(r.detour_factor() >= 1.0);
        assert!(r.wirelength >= 8.0 * 90.0);
    }

    #[test]
    fn nan_pin_is_a_typed_error() {
        let nets = vec![vec![(5.0, 5.0), (f64::NAN, 35.0)]];
        let err = route_nets(&nets, grid()).expect_err("NaN pin must be rejected");
        assert_eq!(err, RouteError::NonFinitePin { net: 0 });
    }

    #[test]
    fn single_pin_nets_are_free() {
        let nets = vec![vec![(5.0, 5.0)]];
        let r = route_nets(&nets, grid()).expect("routable");
        assert_eq!(r.wirelength, 0.0);
    }

    #[test]
    fn mazed_routing_is_repeatable_and_counted() {
        // Capacity 2 per edge and eight nets down one corridor: most maze.
        let mut nets: Vec<Vec<(f64, f64)>> =
            (0..8).map(|_| vec![(5.0, 55.0), (95.0, 55.0)]).collect();
        nets.push(vec![(15.0, 5.0), (85.0, 95.0), (45.0, 45.0), (5.0, 85.0)]);
        let net = |ni: usize| nets[ni].as_slice();
        let (first, stats) = route_nets_counted(nets.len(), net, grid()).expect("routable");
        let (second, again) = route_nets_counted(nets.len(), net, grid()).expect("routable");
        assert_eq!(first, second);
        assert_eq!(stats, again);
        assert!(stats.mazed_segments > 0, "{stats:?}");
        assert_eq!(stats.mazed_segments as usize, first.mazed_segments);
        assert_eq!(stats.pattern_segments + stats.mazed_segments, 8 + 3);
        assert_eq!(
            stats.maze_certified + stats.maze_searched,
            stats.mazed_segments
        );
        assert!(stats.maze_improved <= stats.maze_searched);
        // A search settles at least its source; a certified call nothing.
        assert!(stats.maze_settled_nodes >= stats.maze_searched);
        assert!(stats.maze_searched > 0 || stats.maze_settled_nodes == 0);
        assert!(
            stats.maze_settled_nodes <= stats.maze_window_nodes,
            "{stats:?}"
        );
        // A bbox holds at least the segment's two GCells.
        assert!(stats.maze_bbox_nodes >= 2 * stats.mazed_segments);
        assert!(stats.maze_bbox_nodes <= stats.maze_window_nodes);
    }

    /// `route_placed_netlist` routes on the design grid: GCells three rows
    /// wide covering the die, and every edge at the library's tracks per
    /// layer times its layers per direction.
    #[test]
    fn placed_designs_route_on_the_design_grid() {
        use cp_netlist::generator::{DesignProfile, GeneratorConfig};
        let mut netlist = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.005)
            .generate();
        let fp = Floorplan::try_for_netlist(&netlist, 0.6, 1.0).expect("valid geometry");
        let die = fp.die;
        let mut positions: Vec<(f64, f64)> = (0..netlist.cell_count())
            .map(|k| {
                let (u, v) = ((k * 37 % 100) as f64 / 100.0, (k * 61 % 100) as f64 / 100.0);
                (die.llx + u * die.width(), die.lly + v * die.height())
            })
            .collect();
        positions.extend_from_slice(&fp.port_positions);
        let route = |netlist: &Netlist| {
            route_placed_netlist(netlist, &positions, &fp, &RouterOptions)
                .expect("finite positions route")
                .congestion
        };
        let capacity_everywhere = |grid: &CongestionMap, tracks: f64| {
            let (nx, ny) = (grid.nx(), grid.ny());
            (0..ny).all(|j| (0..nx - 1).all(|i| grid.h_capacity(i, j) == tracks))
                && (0..ny - 1).all(|j| (0..nx).all(|i| grid.v_capacity(i, j) == tracks))
        };
        let grid = route(&netlist);
        let g = grid.gcell_size();
        assert_eq!(g, 3.0 * fp.row_height);
        let (nx, ny) = (grid.nx(), grid.ny());
        assert!(nx >= 4 && ny >= 4, "{nx} x {ny}");
        assert!((nx - 1) as f64 * g < die.width() && die.width() <= nx as f64 * g);
        assert!((ny - 1) as f64 * g < die.height() && die.height() <= ny as f64 * g);
        assert_eq!(grid.gcell_of(die.llx, die.lly), (0, 0));
        assert_eq!(grid.gcell_of(die.urx, die.ury), (nx - 1, ny - 1));
        assert!(grid.max_utilization() > 0.0);
        // The default library's 10 tracks on each of 3 layers.
        assert!(capacity_everywhere(&grid, 30.0));
        let library = netlist.library_mut();
        (library.tracks_per_layer, library.horizontal_layers) = (7, 2);
        assert!(capacity_everywhere(&route(&netlist), 14.0));
    }

    #[test]
    fn deterministic() {
        let nets = vec![
            vec![(5.0, 5.0), (95.0, 95.0)],
            vec![(15.0, 85.0), (85.0, 15.0)],
            vec![(50.0, 5.0), (50.0, 95.0), (5.0, 50.0)],
        ];
        let a = route_nets(&nets, grid()).expect("routable");
        let b = route_nets(&nets, grid()).expect("routable");
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod blockage_tests {
    use super::*;
    use cp_netlist::floorplan::Rect;

    #[test]
    fn derated_region_congests_sooner() {
        let grid = CongestionMap::new(Rect::new(0.0, 0.0, 100.0, 100.0), 10.0, 4.0);
        let nets: Vec<Vec<(f64, f64)>> = (0..3).map(|_| vec![(5.0, 55.0), (95.0, 55.0)]).collect();
        let open = route_nets(&nets, grid.clone()).expect("routable");
        // GCells 3..=7 × 4..=7: the block over x 30–70, y 40–70.
        let mut derated = grid;
        derated.derate(3, 4, 7, 7, 0.4);
        let blocked = route_nets(&nets, derated).expect("routable");
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
    use cp_netlist::floorplan::Rect;

    #[test]
    fn one_column_region_with_a_blockage_routes() {
        // 5 µm wide at 10 µm GCells: a 1 × 10 grid with no horizontal edges.
        let mut grid = CongestionMap::new(Rect::new(0.0, 0.0, 5.0, 100.0), 10.0, 1.0);
        let nets: Vec<Vec<(f64, f64)>> = (0..3).map(|_| vec![(2.0, 5.0), (3.0, 95.0)]).collect();
        // A block over x 0–5, y 20–60: GCells 0..=0 × 2..=6.
        grid.derate(0, 2, 0, 6, 0.4);
        let r = route_nets(&nets, grid).expect("routable");
        assert_eq!((r.congestion.nx(), r.congestion.ny()), (1, 10));
        assert_eq!(r.wirelength, 3.0 * 90.0);
        assert_eq!(r.congestion.overflow_edges(), 9);
    }

    #[test]
    fn one_row_region_with_a_blockage_routes() {
        let mut grid = CongestionMap::new(Rect::new(0.0, 0.0, 100.0, 5.0), 10.0, 1.0);
        let nets: Vec<Vec<(f64, f64)>> = (0..3).map(|_| vec![(5.0, 2.0), (95.0, 3.0)]).collect();
        // A block over x 20–60, y 0–5: GCells 2..=6 × 0..=0.
        grid.derate(2, 0, 6, 0, 0.4);
        let r = route_nets(&nets, grid).expect("routable");
        assert_eq!((r.congestion.nx(), r.congestion.ny()), (10, 1));
        assert_eq!(r.wirelength, 3.0 * 90.0);
    }
}

/// The maze against a reference: a plain heap Dijkstra over the same
/// cached integer costs, on small random maps.
#[cfg(test)]
mod maze_oracle_tests {
    use super::*;
    use cp_netlist::floorplan::Rect;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Cost of the cheapest `a`→`b` path inside the maze's window.
    /// An `nx × ny` grid of 1 µm GCells, four tracks per edge.
    fn unit_grid(nx: usize, ny: usize) -> CongestionMap {
        CongestionMap::new(Rect::new(0.0, 0.0, nx as f64, ny as f64), 1.0, 4.0)
    }

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

    /// How one maze call was answered.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Outcome {
        /// The staircase met the cut bound: no search.
        Certified,
        /// The search found nothing cheaper than the staircase.
        Exhausted,
        /// The search found a cheaper, non-monotone path.
        Improved,
    }

    /// The outcome of the one maze call counted in `stats`.
    fn outcome(stats: &RouteStats) -> Outcome {
        assert_eq!(stats.maze_certified + stats.maze_searched, 1);
        assert!(stats.maze_improved <= stats.maze_searched);
        match (stats.maze_certified, stats.maze_improved) {
            (1, _) => Outcome::Certified,
            (_, 1) => Outcome::Improved,
            _ => Outcome::Exhausted,
        }
    }

    /// Checks the path one maze call committed (`before` → `after`, `len`
    /// edges, counted in `stats`) against the oracle and the window.
    fn check_committed(
        before: &CongestionMap,
        after: &CongestionMap,
        a: GCell,
        b: GCell,
        margin: usize,
        len: f64,
        stats: &RouteStats,
    ) {
        let mut edges = changed_edges(before, after);
        assert_eq!(edges.len() as f64, len, "a shortest path repeats no edge");
        assert!(
            edges.iter().all(|e| e.2 == 1.0),
            "one track per edge: {edges:?}"
        );
        let path_cost: u32 = edges.iter().map(|e| e.3).sum();
        assert_eq!(Some(path_cost), oracle_cost(before, a, b, margin));

        // The changed edges chain 4-connectedly from `a` to `b` in the window.
        let (x0, y0, x1, y1) = maze_window(before, a, b, margin);
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
        // A certified call settles nothing; a search that reaches `b`
        // settles its whole path; one that does not, at least `a`.
        match outcome(stats) {
            Outcome::Certified => assert_eq!(stats.maze_settled_nodes, 0),
            Outcome::Improved => assert!(stats.maze_settled_nodes as f64 > len),
            Outcome::Exhausted => assert!(stats.maze_settled_nodes >= 1),
        }
        assert!(stats.maze_settled_nodes <= stats.maze_window_nodes);

        // What exactness rests on: the cut bound is below, the staircase
        // above the true cost, and they decide the outcome; the potential
        // is 0 at `b` and changes by at most an edge's cost along it
        // (consistent, hence admissible).
        let mut bounds = MazeScratch::new();
        let lower = bounds.cut_bound(before, (x0, y0, x1, y1), a, b);
        let upper = bounds.staircase_bound(before, a, b);
        assert!(lower <= path_cost && path_cost <= upper);
        let expected = if lower >= upper {
            Outcome::Certified
        } else if path_cost < upper {
            Outcome::Improved
        } else {
            Outcome::Exhausted
        };
        assert_eq!(outcome(stats), expected);
        assert_eq!(
            stats.maze_bbox_nodes as usize,
            (a.0.abs_diff(b.0) + 1) * (a.1.abs_diff(b.1) + 1)
        );
        let potential = |c: GCell| bounds.toward_x[c.0 - x0] + bounds.toward_y[c.1 - y0];
        assert_eq!(potential(b), 0);
        for j in y0..=y1 {
            for i in x0..=x1 {
                if i < x1 {
                    let cost = u32::from(before.h_cost_row(i, j, 1)[0]);
                    assert!(potential((i, j)).abs_diff(potential((i + 1, j))) <= cost);
                }
                if j < y1 {
                    let cost = u32::from(before.v_cost_row(i, j, 1)[0]);
                    assert!(potential((i, j)).abs_diff(potential((i, j + 1))) <= cost);
                }
            }
        }
    }

    /// Routes `a`→`b` through the maze and checks the committed path.
    fn check_maze(
        map: &mut CongestionMap,
        a: GCell,
        b: GCell,
        margin: usize,
        scratch: &mut MazeScratch,
    ) -> Outcome {
        let before = map.clone();
        let mut stats = RouteStats::default();
        let len = maze_route(map, a, b, margin, scratch, &mut stats);
        check_committed(&before, map, a, b, margin, len, &stats);
        outcome(&stats)
    }

    /// The `k`-th of a case's segments: any two distinct cells of the grid.
    fn segment(nx: usize, ny: usize, from: usize, step: usize) -> (GCell, GCell) {
        let cells = nx * ny;
        let (from, to) = (
            from % cells,
            (from % cells + 1 + step % (cells - 1)) % cells,
        );
        ((from % nx, from / nx), (to % nx, to / nx))
    }

    /// The regime the benchmark routes in, which independent random demand
    /// never produces: every edge at or over capacity, except inside a few
    /// rectangular holes of lower demand, with up to two derated regions.
    /// Yields the map and `(a, b, margin)` segments.
    fn saturated_case() -> impl Strategy<Value = (CongestionMap, Vec<(GCell, GCell, usize)>)> {
        let rect = || (0usize..14, 0usize..14, 0usize..14, 0usize..14);
        (
            (2usize..=14, 2usize..=14),
            prop::collection::vec(0usize..3, 2 * 14 * 14),
            prop::collection::vec((rect(), 0usize..4), 0..=6),
            prop::collection::vec(rect(), 0..=2),
            prop::collection::vec((0usize..196, 0usize..195, 0usize..5), 1..6),
        )
            .prop_map(|((nx, ny), excess, holes, derates, segments)| {
                let mut map = unit_grid(nx, ny);
                let span = |p: usize, q: usize, n: usize| ((p % n).min(q % n), (p % n).max(q % n));
                for (i0, j0, i1, j1) in derates {
                    let ((i0, i1), (j0, j1)) = (span(i0, i1, nx), span(j0, j1, ny));
                    map.derate(i0, j0, i1, j1, 0.4);
                }
                let demand = |i: usize, j: usize, vertical: usize| {
                    let hole = holes.iter().find(|((i0, j0, i1, j1), _)| {
                        let ((i0, i1), (j0, j1)) = (span(*i0, *i1, nx), span(*j0, *j1, ny));
                        (i0..=i1).contains(&i) && (j0..=j1).contains(&j)
                    });
                    match hole {
                        Some(&(_, level)) => level,
                        None => 4 + excess[2 * (j * 14 + i) + vertical],
                    }
                };
                for j in 0..ny {
                    for i in 0..nx {
                        if i + 1 < nx {
                            map.add_h(i, j, demand(i, j, 0) as f64);
                        }
                        if j + 1 < ny {
                            map.add_v(i, j, demand(i, j, 1) as f64);
                        }
                    }
                }
                let segments = segments
                    .into_iter()
                    .map(|(from, step, margin)| {
                        let (a, b) = segment(nx, ny, from, step);
                        (a, b, margin)
                    })
                    .collect();
                (map, segments)
            })
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
            let mut map = unit_grid(nx, ny);
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
            for (from, step, margin) in segments {
                let (a, b) = segment(nx, ny, from, step);
                check_maze(&mut map, a, b, margin, &mut scratch);
            }
        }

        #[test]
        fn maze_path_cost_matches_heap_dijkstra_on_saturated_maps(
            (mut map, segments) in saturated_case(),
        ) {
            let mut scratch = MazeScratch::new();
            for (a, b, margin) in segments {
                check_maze(&mut map, a, b, margin, &mut scratch);
            }
        }
    }

    /// The saturated generator reaches all three outcomes of a maze call.
    #[test]
    fn saturated_cases_cover_the_three_outcomes() {
        use proptest::Strategy as _;
        let mut rng = proptest::TestRng::seed_from_u64(18);
        let strategy = saturated_case();
        let mut outcomes = Vec::new();
        for _ in 0..192 {
            let (mut map, segments) = strategy.generate(&mut rng);
            let mut scratch = MazeScratch::new();
            for (a, b, margin) in segments {
                outcomes.push(check_maze(&mut map, a, b, margin, &mut scratch));
            }
        }
        let count = |o: Outcome| outcomes.iter().filter(|&&x| x == o).count();
        assert!(count(Outcome::Certified) >= 100, "{outcomes:?}");
        assert!(count(Outcome::Exhausted) >= 50, "{outcomes:?}");
        assert!(count(Outcome::Improved) >= 50, "{outcomes:?}");
    }

    /// Segments routed one after another through `route_segment`, so the
    /// maze sees the field its own commits shape: every maze-stage commit
    /// is a cheapest path under the costs it was chosen on.
    #[test]
    fn every_maze_commit_on_an_evolving_field_matches_the_oracle() {
        let (n, margin) = (40usize, 6usize);
        let mut map = unit_grid(n, n);
        let mut rng = proptest::TestRng::seed_from_u64(40);
        let mut scratch = MazeScratch::new();
        let mut outcomes = Vec::new();
        // The mean of two uniform draws: pins crowd the centre of the grid.
        let mut coordinate = || ((rng.below(n as u64) + rng.below(n as u64)) / 2) as usize;
        for _ in 0..2500 {
            let (a, b) = ((coordinate(), coordinate()), (coordinate(), coordinate()));
            if a == b {
                continue;
            }
            let before = map.clone();
            let mut stats = RouteStats::default();
            let len = route_segment(&mut map, a, b, margin, &mut scratch, &mut stats);
            if stats.mazed_segments == 1 {
                check_committed(&before, &map, a, b, margin, len, &stats);
                outcomes.push(outcome(&stats));
            }
        }
        let count = |o: Outcome| outcomes.iter().filter(|&&x| x == o).count();
        assert!(outcomes.len() >= 1000, "{} maze calls", outcomes.len());
        assert!(count(Outcome::Certified) >= 100, "{outcomes:?}");
        assert!(count(Outcome::Exhausted) >= 100, "{outcomes:?}");
        assert!(count(Outcome::Improved) >= 100, "{outcomes:?}");
    }

    /// Shapes at the edge of what the staircase table, the ring and the
    /// cut sums index: straight segments, one-wide and one-high windows,
    /// endpoints in grid corners, no margin, a window that is the grid.
    #[test]
    fn degenerate_segments_and_windows_match_the_oracle() {
        let saturated = |nx: usize, ny: usize| {
            let mut map = unit_grid(nx, ny);
            // Capacity 1.6 on the staircases' way through the middle.
            map.derate(nx / 3, ny / 3, 2 * nx / 3, 2 * ny / 3, 0.4);
            for j in 0..ny {
                for i in 0..nx {
                    // At capacity except on the left and bottom borders.
                    let demand = if i == 0 || j == 0 { 1.0 } else { 4.0 };
                    if i + 1 < nx {
                        map.add_h(i, j, demand);
                    }
                    if j + 1 < ny {
                        map.add_v(i, j, demand);
                    }
                }
            }
            map
        };
        let mut scratch = MazeScratch::new();
        for (nx, ny, a, b, margin) in [
            // Straight, both directions, with and without room to detour.
            (9, 9, (1, 4), (7, 4), 3),
            (9, 9, (7, 4), (1, 4), 0),
            (9, 9, (4, 7), (4, 1), 3),
            (9, 9, (4, 1), (4, 7), 0),
            // One-wide and one-high grids.
            (1, 9, (0, 8), (0, 0), 2),
            (9, 1, (0, 0), (8, 0), 2),
            // Corner to corner: the window is the whole grid at any margin.
            (9, 7, (0, 0), (8, 6), 0),
            (9, 7, (8, 6), (0, 0), 4),
            (9, 7, (0, 6), (8, 0), 100),
            (9, 7, (8, 0), (0, 6), 1),
            // Neighbours, and a margin that reaches past the grid.
            (9, 9, (3, 3), (4, 3), 1),
            (9, 9, (8, 8), (8, 7), 20),
            // Through the derated block, all four travel directions.
            (12, 12, (2, 2), (9, 9), 1),
            (12, 12, (9, 2), (2, 9), 1),
            (12, 12, (2, 9), (9, 2), 1),
            (12, 12, (9, 9), (2, 2), 1),
        ] {
            let mut map = saturated(nx, ny);
            check_maze(&mut map, a, b, margin, &mut scratch);
            // Once more over what that commit left behind.
            check_maze(&mut map, b, a, margin, &mut scratch);
        }
    }

    /// On a map where every monotone path costs the same, the committed
    /// one hugs the `a`–`b` diagonal (a fixed preference would commit the
    /// same L every time), and the choice is a function of the inputs.
    #[test]
    fn ties_resolve_to_the_staircase_along_the_diagonal() {
        for (a, b) in [
            ((2, 3), (17, 9)),
            ((17, 3), (2, 9)),
            ((5, 18), (9, 1)),
            ((1, 1), (8, 8)),
        ] {
            let route = || {
                let before = unit_grid(20, 20);
                let mut after = before.clone();
                let mut stats = RouteStats::default();
                let mut scratch = MazeScratch::new();
                maze_route(&mut after, a, b, 4, &mut scratch, &mut stats);
                assert_eq!(stats.maze_certified, 1);
                changed_edges(&before, &after)
            };
            let edges = route();
            assert_eq!(edges, route());
            let (dx, dy) = (a.0.abs_diff(b.0), a.1.abs_diff(b.1));
            assert_eq!(edges.len(), dx + dy);
            for (lo, hi, ..) in edges {
                for (x, y) in [lo, hi] {
                    // Twice the area between the node and the diagonal,
                    // at most one GCell along the longer axis.
                    let off = (x.abs_diff(a.0) * dy).abs_diff(y.abs_diff(a.1) * dx);
                    assert!(off <= dx.max(dy), "({x}, {y}) strays from {a:?}–{b:?}");
                }
            }
        }
    }
}

#[cfg(test)]
mod steiner_tests {
    use super::*;
    use cp_netlist::floorplan::Rect;

    /// 20 × 20 GCells of 10 µm at the default library's 30 tracks.
    fn grid() -> CongestionMap {
        CongestionMap::new(Rect::new(0.0, 0.0, 200.0, 200.0), 10.0, 30.0)
    }

    #[test]
    fn three_pin_steiner_beats_mst_on_an_l() {
        // Pins at the corners of an L: MST length 2·10 gcells; Steiner via
        // the median point also 20 — but for a T shape Steiner wins.
        // T shape: pins at (0,10), (20,10), (10,0) in gcells.
        let nets = vec![vec![(5.0, 105.0), (195.0, 105.0), (105.0, 5.0)]];
        let r = route_nets(&nets, grid()).expect("routable");
        // Steiner point (10,10): total = 10 + 9 + 10 = 29 edges = 290 µm.
        // An MST would pay 10 + (10+10) = ... ≥ 29; exact check:
        assert_eq!(r.wirelength, 290.0);
    }

    #[test]
    fn three_collinear_pins_unchanged() {
        let nets = vec![vec![(5.0, 5.0), (105.0, 5.0), (195.0, 5.0)]];
        let r = route_nets(&nets, grid()).expect("routable");
        assert_eq!(r.wirelength, 190.0);
    }
}
