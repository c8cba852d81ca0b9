//! Fourier–Motzkin elimination allocates per system, not per constraint.
//!
//! The flat matrix keeps every row of a system in one buffer and writes
//! each elimination into a second one it reuses, so the allocator count
//! is an exact, host-independent measure of FM bookkeeping. A counting
//! `#[global_allocator]` holds it to that:
//!
//! * an emptiness test on a two-copy pair system the size of Hotspot's
//!   (the partition-safety proof of its write map) makes the same four
//!   allocations — the two row buffers and the two kind buffers — along
//!   every split axis, however many rows its eliminations write;
//! * projecting the block coordinates out of that write map allocates
//!   those four buffers, the output list and one coefficient vector per
//!   output constraint;
//! * building the enumerator of that map's write image, and finding the
//!   first point of a concretised race system, make an exact number of
//!   allocations: a loop nest derived with a round trip through
//!   constraints per level, or a point scan that rebinds a
//!   parameter-free system, shows up as a different count.

use mekong_poly::{Constraint, Enumerator, LinExpr, Map, Polyhedron};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocator calls made by this thread. Per thread, so tests running
    /// side by side do not count each other; const-initialised and
    /// without a destructor, so touching it never allocates itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a thread-local count.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: same layout, same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `f` makes on this thread, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Hotspot's write map as the analysis models it: one 2-D tile per block,
/// clipped to the `n × n` grid.
fn hotspot_write() -> Map {
    Map::parse(
        "[bdz, bdy, bdx, gdz, gdy, gdx, n, cap] -> \
         { [boz, boy, box, biz, biy, bix] -> [e0, e1] : \
           box >= 0 and bix >= 0 and bix < gdx and box <= e1 and e1 < box + bdx and \
           boy >= 0 and biy >= 0 and biy < gdy and boy <= e0 and e0 < boy + bdy and \
           boz >= 0 and biz >= 0 and biz < gdz and e1 < n and e0 < n and bdz >= 1 }",
    )
    .unwrap()
}

/// The parameter context of a launch: every block and grid dimension ≥ 1.
fn launch_context(n_params: usize) -> Polyhedron {
    let mut ctx = Polyhedron::universe(0, n_params);
    for p in 0..6 {
        let e = LinExpr::var(n_params, p).with_konst(-1);
        ctx.add_constraint(Constraint::ge0(e));
    }
    ctx
}

/// The pair system of the map's piece with itself, the primed block
/// strictly after the unprimed one along grid axis `s` (z, y, x = 0, 1, 2).
fn split_pair(map: &Map, s: usize) -> Polyhedron {
    let piece = &map.relation().pieces()[0];
    let mut sys = map.pair_system(piece, piece);
    let dims = sys.n_dims();
    let width = sys.width();
    let var = |i| LinExpr::var(width, i);
    let bo_next = var(s).add(&var(dims + s)).unwrap();
    sys.add_constraint(Constraint::ge(&var(6 + s), &bo_next).unwrap());
    sys.add_constraint(Constraint::ge(&var(9 + s), &var(3 + s).with_konst(1)).unwrap());
    sys
}

#[test]
fn emptiness_test_allocates_its_buffers_once() {
    let map = hotspot_write();
    let ctx = launch_context(map.n_params());
    for (axis, injective) in [(0, false), (1, true), (2, true)] {
        let sys = split_pair(&map, axis);
        assert!(sys.constraints().len() > 30, "a hotspot-sized system");
        let (allocs, empty) = counted(|| sys.is_empty_symbolic(&ctx).unwrap());
        // Along z the tiles of consecutive blocks coincide.
        assert_eq!(empty, injective, "axis {axis}");
        assert_eq!(allocs, 4, "axis {axis}: allocations of one emptiness test");
    }
}

#[test]
fn projection_allocates_once_per_output_constraint() {
    let map = hotspot_write();
    let piece = &map.relation().pieces()[0];
    let (allocs, (image, exact)) = counted(|| piece.project_out_dims(0..6).unwrap());
    assert!(exact);
    let outputs = image.constraints().len() as u64;
    assert!(outputs > 0);
    // Four matrix buffers, the output list, one vector per constraint.
    assert!(
        allocs <= outputs + 5,
        "{allocs} allocations for {outputs} output constraints"
    );
}

#[test]
fn enumerator_build_allocation_count() {
    let image = hotspot_write().range().unwrap();
    let (allocs, enumerator) = counted(|| Enumerator::build(&image).unwrap());
    assert_eq!(enumerator.pieces().len(), 1);
    // A constraints round trip per loop level made it 60.
    assert_eq!(allocs, 30, "allocations of one enumerator build");
}

/// The split pair system along z bound to a trial launch and made finite
/// the way the checker's race search binds it: per copy `blockOff =
/// blockDim · blockIdx` with `blockIdx` inside the grid, and each output
/// inside a box around the `n × n` array.
fn concretised_race(map: &Map) -> Polyhedron {
    // bdz, bdy, bdx, gdz, gdy, gdx, n, cap
    let params = [2, 4, 4, 2, 2, 2, 8, 0];
    let mut p = split_pair(map, 0).bind_params(&params).unwrap();
    let w = p.n_dims();
    let var = |i| LinExpr::var(w, i);
    let clamp = |p: &mut Polyhedron, dim, lo, hi| {
        p.add_constraint(Constraint::ge(&var(dim), &LinExpr::constant(w, lo)).unwrap());
        p.add_constraint(Constraint::le(&var(dim), &LinExpr::constant(w, hi)).unwrap());
    };
    for copy in 0..2 {
        let off = copy * 6;
        for k in 0..3 {
            let mut e = LinExpr::constant(w, 0);
            e.coeffs[off + k] = 1;
            e.coeffs[off + 3 + k] = -params[k];
            p.add_constraint(Constraint::eq(e));
            clamp(&mut p, off + 3 + k, 0, params[3 + k] - 1);
        }
    }
    for out in 12..w {
        clamp(&mut p, out, -9, 17);
    }
    p
}

#[test]
fn first_point_allocation_count() {
    let sys = concretised_race(&hotspot_write());
    assert_eq!(sys.n_params(), 0);
    let (allocs, point) = counted(|| sys.first_point(&[]).unwrap());
    // Along z the tiles of consecutive blocks coincide: a race witness.
    assert!(point.is_some());
    // Rebinding the system and a round trip per level made it 967.
    assert_eq!(allocs, 429, "allocations of one first-point scan");
}
