//! Launch-ahead pipelined scheduling: a dependency DAG across replayed
//! launches.
//!
//! The Figure 4 sequence is fully synchronous — `sync-reads → launch →
//! update-trackers` with a global barrier between the sync and launch
//! phases — so peer-copy latency sits on the critical path of every
//! iteration. But a captured plan already *is* the static dependence
//! structure of one launch: which copies feed which partitions, and which
//! buffers each partition reads and writes. When such a plan replays with
//! [`crate::RuntimeConfig::launch_ahead`] > 0, the runtime records its
//! per-device command segments with **event edges** instead of barriers:
//!
//! * a read-sync copy of buffer `b` from device `s` to device `g` waits
//!   for `b`'s producer launch on `s` (`ready_at[b,s]`, read-after-write)
//!   and for prior readers of `b` on `g` (`read_until[b,g]`,
//!   write-after-read);
//! * a partition launch on `g` waits for the incoming copies of every
//!   buffer it reads (`ready_at[r,g]`) and for in-flight readers of every
//!   buffer it writes (`read_until[w,g]`).
//!
//! Copies are charged to per-device **copy-engine clocks**
//! ([`mekong_gpusim::Machine::copy_d2d`] with `deps`), so iteration *i+1*'s
//! halo exchange streams while iteration *i*'s compute still occupies the
//! SM clocks. There is deliberately **no write-after-write edge between a
//! halo copy and the destination's own partition launch**: the partition
//! invariant guarantees disjointness (a device's kernel writes its own
//! partition; the plan only copies in segments whose freshest copy is
//! remote, i.e. bytes the destination did *not* just write), and the plan
//! was captured against exactly the tracker state the key's signatures
//! pin.
//!
//! **Deferred tracker commit:** trackers (and the plan-cache signatures
//! derived from them) advance at *submit* time, exactly as in the eager
//! path — the tracker models the submitted state of the machine, not the
//! drained state. That keeps plan keys, hit rates and counters identical
//! to `launch_ahead = 0`. The flip side is that any operation observing
//! real bytes or host-side clocks mid-window — D2H/H2D, an uncaptured
//! launch, a config change, direct machine access — must first flush
//! the window (`MgpuRuntime::pipeline_flush`). One exception is carved
//! out: a D2H gather of a buffer with **no in-flight writer** (no
//! queued halo copy into it, no queued launch writing it — see
//! `Pipeline::writes_in_flight`) skips the flush, so periodic
//! result downloads of a spectator buffer do not stall the window.
//!
//! The window is purely a statement about simulated clocks: the
//! machine lands every byte effect when its op is submitted, in program
//! order, so a copy's snapshot always precedes a later overwrite.

use crate::plan::{LaunchPlan, PlanCopy};
use crate::vbuf::{MgpuRuntime, VBufId};
use mekong_gpusim::SimTime;
use std::collections::VecDeque;

/// In-flight window state of the launch-ahead scheduler. All times are
/// simulated completion times. The whole-buffer × device dependency
/// slots are dense tables indexed `buffer.index() * n_devices + device`,
/// grown at `malloc`: an op reads and raises its slots by index, nothing
/// is hashed. A slot nothing has raised reads 0.0, which orders nothing.
#[derive(Debug)]
pub(crate) struct Pipeline {
    n_devices: usize,
    /// Completion time of each in-flight launch, oldest first. The
    /// window is depth-limited: exceeding `launch_ahead` joins the host
    /// clock to the oldest entry (the host blocks, as on a full CUDA
    /// stream).
    in_flight: VecDeque<SimTime>,
    /// When `(buffer, device)` last became fully valid (producer kernel
    /// or incoming halo copies) — read-after-write edges.
    ready_at: Vec<SimTime>,
    /// Until when `(buffer, device)` is being read (kernel reads, peer
    /// copies sourcing from it) — write-after-read edges.
    read_until: Vec<SimTime>,
    /// Per buffer: has an in-flight copy or launch written it since the
    /// last drain?
    written: Vec<bool>,
    /// Has anything been recorded since the last drain?
    dirty: bool,
}

impl Pipeline {
    /// An empty window over a machine of `n_devices`.
    pub(crate) fn new(n_devices: usize) -> Pipeline {
        Pipeline {
            n_devices,
            in_flight: VecDeque::new(),
            ready_at: Vec::new(),
            read_until: Vec::new(),
            written: Vec::new(),
            dirty: false,
        }
    }

    /// Size the slot tables for `n_buffers` virtual buffers.
    pub(crate) fn grow(&mut self, n_buffers: usize) {
        let slots = n_buffers * self.n_devices;
        self.ready_at.resize(slots, 0.0);
        self.read_until.resize(slots, 0.0);
        self.written.resize(n_buffers, false);
    }

    /// Number of in-flight launches (for tests: observing the window
    /// must not flush it, as [`MgpuRuntime::machine_mut`] does).
    #[cfg(test)]
    pub(crate) fn depth(&self) -> usize {
        self.in_flight.len()
    }

    fn slot(&self, vb: VBufId, device: usize) -> usize {
        vb.index() * self.n_devices + device
    }

    fn raise(slot: &mut SimTime, t: SimTime) {
        if t > *slot {
            *slot = t;
        }
    }

    /// Event edges of a read-sync copy: the producer launch of these
    /// bytes on the source (RAW) and in-flight readers of the
    /// destination's instance (WAR).
    pub(crate) fn copy_edges(&self, c: &PlanCopy) -> [SimTime; 2] {
        [
            self.ready_at[self.slot(c.vb, c.src_dev)],
            self.read_until[self.slot(c.vb, c.dst_gpu)],
        ]
    }

    /// Record copy `c` completing at `end`.
    pub(crate) fn note_copy(&mut self, c: &PlanCopy, end: SimTime) {
        let (src, dst) = (self.slot(c.vb, c.src_dev), self.slot(c.vb, c.dst_gpu));
        Self::raise(&mut self.ready_at[dst], end);
        Self::raise(&mut self.read_until[src], end);
        self.written[c.vb.index()] = true;
        self.dirty = true;
    }

    /// Event edges of a partition launch on `gpu`, into `deps` (the
    /// caller's scratch, cleared first): the incoming copies of every
    /// buffer it reads and in-flight readers of every buffer it writes.
    pub(crate) fn launch_edges(&self, plan: &LaunchPlan, gpu: usize, deps: &mut Vec<SimTime>) {
        deps.clear();
        for b in &plan.read_bufs {
            deps.push(self.ready_at[self.slot(*b, gpu)]);
        }
        for b in &plan.write_bufs {
            deps.push(self.read_until[self.slot(*b, gpu)]);
        }
    }

    /// Record a partition launch of `plan` on `gpu` finishing at `end`.
    pub(crate) fn note_launch(&mut self, plan: &LaunchPlan, gpu: usize, end: SimTime) {
        for b in &plan.write_bufs {
            let slot = self.slot(*b, gpu);
            Self::raise(&mut self.ready_at[slot], end);
            self.written[b.index()] = true;
        }
        for b in &plan.read_bufs {
            let slot = self.slot(*b, gpu);
            Self::raise(&mut self.read_until[slot], end);
        }
        self.dirty = true;
    }

    /// Add the replayed `plan`, whose last partition launch finishes at
    /// `launched`, to the window (a plan with no copies and no launches
    /// adds nothing). Yields the completion times of the launches that
    /// no longer fit in a window of `depth` — the host blocks on each.
    pub(crate) fn push(
        &mut self,
        plan: &LaunchPlan,
        launched: SimTime,
        depth: usize,
    ) -> impl Iterator<Item = SimTime> + '_ {
        if !(plan.copies.is_empty() && plan.launches.is_empty()) {
            // Copies with no kernel after them must still be covered by
            // the window join.
            let completion = plan.copies.iter().fold(launched, |t, c| {
                t.max(self.ready_at[self.slot(c.vb, c.dst_gpu)])
            });
            self.in_flight.push_back(completion);
        }
        let excess = self.in_flight.len().saturating_sub(depth);
        self.in_flight.drain(..excess)
    }

    /// True when an in-flight operation may still be writing `vb` on
    /// some device — an incoming halo copy or a partition launch that
    /// writes it. Buffers only *read* inside the window stay cold.
    /// Conservative across retired launches: the marks persist until
    /// the next drain.
    pub(crate) fn writes_in_flight(&self, vb: VBufId) -> bool {
        !self.in_flight.is_empty() && self.written[vb.index()]
    }

    /// Drop all window state, returning the latest in-flight completion
    /// time (if any) for the caller to join the host clock to.
    fn drain(&mut self) -> Option<SimTime> {
        let latest = self.in_flight.iter().copied().reduce(SimTime::max);
        self.in_flight.clear();
        if self.dirty {
            self.ready_at.fill(0.0);
            self.read_until.fill(0.0);
            self.written.fill(false);
            self.dirty = false;
        }
        latest
    }
}

impl MgpuRuntime {
    /// Flush the launch-ahead window: the host clock joins the latest
    /// in-flight completion and all event-edge state is dropped. Called
    /// before any operation that observes real bytes or host-side clocks
    /// (D2H/H2D, uncaptured launches, synchronize, config changes,
    /// direct machine access). Cheap no-op when nothing is in flight.
    pub(crate) fn pipeline_flush(&mut self) {
        if let Some(t) = self.pipeline.drain() {
            self.machine.join_host(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn copy(vb: usize, src_dev: usize, dst_gpu: usize) -> PlanCopy {
        PlanCopy {
            vb: VBufId(vb),
            dst_gpu,
            src_dev,
            start: 0,
            end: 8,
            stride: 8,
            count: 1,
        }
    }

    /// A flush returns the latest in-flight completion and forgets every
    /// event edge and write mark of the window.
    #[test]
    fn drain_returns_latest_completion_and_clears_the_window() {
        let mut p = Pipeline::new(3);
        p.grow(2);
        p.note_copy(&copy(1, 2, 0), 5.0);
        p.note_copy(&copy(1, 2, 1), 6.0);
        p.note_copy(&copy(0, 1, 2), 4.0);
        assert!(!p.writes_in_flight(VBufId(1)), "nothing in the window yet");
        let plan = LaunchPlan {
            copies: vec![copy(1, 2, 0)],
            ..LaunchPlan::default()
        };
        assert_eq!(p.push(&plan, 0.0, 2).count(), 0);
        assert!(p.writes_in_flight(VBufId(0)) && p.writes_in_flight(VBufId(1)));
        assert_eq!(p.copy_edges(&copy(1, 1, 2)), [6.0, 6.0]);

        assert_eq!(p.drain(), Some(5.0));
        for c in [copy(1, 1, 2), copy(1, 0, 2), copy(0, 2, 1)] {
            assert_eq!(p.copy_edges(&c), [0.0, 0.0]);
        }
        assert_eq!(p.push(&plan, 0.0, 2).count(), 0);
        assert!(!p.writes_in_flight(VBufId(0)) && !p.writes_in_flight(VBufId(1)));
        // Drained means drained: a second flush has nothing to join.
        assert_eq!(p.drain(), Some(0.0));
        assert_eq!(p.drain(), None);
    }
}
