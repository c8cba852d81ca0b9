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
//! ([`mekong_gpusim::Backend::copy_d2d`] with `deps`), so iteration *i+1*'s
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
//! Functional ordering across streams is handled with the same event
//! tokens the streamed engine already uses: each pipelined copy records
//! itself as an in-flight *reader* of its source instance, and a later
//! kernel writing that buffer on the source device submits a
//! [`mekong_gpusim::stream::StreamOp::WaitEvent`] first, so the copy's
//! snapshot always precedes the overwrite. A flush drops the window but
//! not that obligation: readers still outstanding become waits on their
//! source devices' streams, ahead of whatever the flush made room for
//! (an upload, a cold launch, a replay under another partitioning).
//! Waits only ever reference strictly-earlier submissions, so the wait
//! graph stays a DAG.

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
    /// In-flight functional readers of `(buffer, source device)`: the
    /// destination device and its stream event token after the copy was
    /// queued. A later kernel writing the buffer on the source device
    /// must cross-stream-wait on these.
    readers: Vec<Vec<(usize, u64)>>,
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
            readers: Vec::new(),
            written: Vec::new(),
            dirty: false,
        }
    }

    /// Size the slot tables for `n_buffers` virtual buffers.
    pub(crate) fn grow(&mut self, n_buffers: usize) {
        let slots = n_buffers * self.n_devices;
        self.ready_at.resize(slots, 0.0);
        self.read_until.resize(slots, 0.0);
        self.readers.resize_with(slots, Vec::new);
        self.written.resize(n_buffers, false);
    }

    /// Number of in-flight launches.
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

    /// Record copy `c` completing at `end`. `token` is the destination
    /// stream's event token after the copy was queued, when functional
    /// byte effects are deferred to the streams: the copy is then an
    /// in-flight *reader* of its source instance.
    pub(crate) fn note_copy(&mut self, c: &PlanCopy, end: SimTime, token: Option<u64>) {
        let (src, dst) = (self.slot(c.vb, c.src_dev), self.slot(c.vb, c.dst_gpu));
        Self::raise(&mut self.ready_at[dst], end);
        Self::raise(&mut self.read_until[src], end);
        self.written[c.vb.index()] = true;
        self.dirty = true;
        if let Some(token) = token {
            self.readers[src].push((c.dst_gpu, token));
        }
    }

    /// Event edges of a partition launch on `gpu`, into `deps`: the
    /// incoming copies of every buffer it reads and in-flight readers of
    /// every buffer it writes. Into `waits` go the in-flight functional
    /// readers of its write buffers' instances on `gpu`, as `(reader
    /// device, event token)` — the launch must cross-stream-wait on each
    /// so the copy's snapshot precedes the overwrite. Both are the
    /// caller's scratch, cleared first.
    pub(crate) fn launch_edges(
        &mut self,
        plan: &LaunchPlan,
        gpu: usize,
        deps: &mut Vec<SimTime>,
        waits: &mut Vec<(usize, u64)>,
    ) {
        deps.clear();
        waits.clear();
        for b in &plan.read_bufs {
            deps.push(self.ready_at[self.slot(*b, gpu)]);
        }
        for b in &plan.write_bufs {
            let slot = self.slot(*b, gpu);
            deps.push(self.read_until[slot]);
            waits.append(&mut self.readers[slot]);
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
    /// time (if any) for the caller to join the host clock to. The
    /// window is a statement about clocks; the byte effects it ordered
    /// may still sit in the streams, so every functional reader still
    /// outstanding goes to `wait(source device, reader device, token)`
    /// — whatever the source device is handed next must not overtake it.
    fn drain(&mut self, mut wait: impl FnMut(usize, usize, u64)) -> Option<SimTime> {
        let latest = self.in_flight.iter().copied().reduce(SimTime::max);
        self.in_flight.clear();
        if self.dirty {
            self.ready_at.fill(0.0);
            self.read_until.fill(0.0);
            self.written.fill(false);
            for (slot, readers) in self.readers.iter_mut().enumerate() {
                for (reader, token) in readers.drain(..) {
                    wait(slot % self.n_devices, reader, token);
                }
            }
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
        let machine = &mut self.machine;
        let latest = self
            .pipeline
            .drain(|source, reader, token| machine.stream_wait_cross(source, reader, token));
        if let Some(t) = latest {
            machine.join_host(t);
        }
    }

    /// Current launch-ahead window depth: how many replayed launches
    /// are in flight right now. Read-only — unlike
    /// [`MgpuRuntime::machine_mut`], observing the depth does not flush.
    pub fn pipeline_depth(&self) -> usize {
        self.pipeline.depth()
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

    /// A flush forgets the window's clocks but hands every functional
    /// reader nobody waited on yet to the caller, keyed by the device it
    /// reads from — dropping them is how a later writer overtook an
    /// in-flight halo copy.
    #[test]
    fn drain_hands_outstanding_readers_to_their_source_devices() {
        let mut p = Pipeline::new(3);
        p.grow(2);
        p.note_copy(&copy(1, 2, 0), 5.0, Some(7));
        p.note_copy(&copy(1, 2, 1), 6.0, Some(9));
        p.note_copy(&copy(0, 1, 2), 4.0, None);
        assert!(!p.writes_in_flight(VBufId(1)), "nothing in the window yet");
        let plan = LaunchPlan {
            copies: vec![copy(1, 2, 0)],
            ..LaunchPlan::default()
        };
        assert_eq!(p.push(&plan, 0.0, 2).count(), 0);
        assert!(p.writes_in_flight(VBufId(1)));

        let mut waits = Vec::new();
        let latest = p.drain(|source, reader, token| waits.push((source, reader, token)));
        assert_eq!(latest, Some(5.0));
        assert_eq!(waits, vec![(2, 0, 7), (2, 1, 9)]);
        assert_eq!(p.copy_edges(&copy(1, 2, 0)), [0.0, 0.0]);
        assert!(!p.writes_in_flight(VBufId(1)));
        // Drained means drained: a second flush has nothing to hand on.
        assert_eq!(p.drain(|_, _, _| panic!("no reader is left")), None);
    }
}
