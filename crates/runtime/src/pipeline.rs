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
//! snapshot always precedes the overwrite. Waits only ever reference
//! strictly-earlier submissions, so the wait graph stays a DAG.

use crate::plan::{LaunchPlan, PlanCopy};
use crate::vbuf::{MgpuRuntime, VBufId};
use mekong_gpusim::SimTime;
use std::collections::{HashMap, VecDeque};

/// Key of one whole-buffer × device dependency slot.
type Slot = (usize, usize);

/// In-flight window state of the launch-ahead scheduler. All times are
/// simulated completion times.
#[derive(Debug, Default)]
pub(crate) struct Pipeline {
    /// Completion time of each in-flight launch, oldest first. The
    /// window is depth-limited: exceeding `launch_ahead` joins the host
    /// clock to the oldest entry (the host blocks, as on a full CUDA
    /// stream).
    in_flight: VecDeque<SimTime>,
    /// When `(buffer, device)` last became fully valid (producer kernel
    /// or incoming halo copies) — read-after-write edges.
    ready_at: HashMap<Slot, SimTime>,
    /// Until when `(buffer, device)` is being read (kernel reads, peer
    /// copies sourcing from it) — write-after-read edges.
    read_until: HashMap<Slot, SimTime>,
    /// In-flight functional readers of `(buffer, source device)`: the
    /// destination device and its stream event token after the copy was
    /// queued. A later kernel writing the buffer on the source device
    /// must cross-stream-wait on these.
    readers: HashMap<Slot, Vec<(usize, u64)>>,
}

impl Pipeline {
    /// Number of in-flight launches.
    pub(crate) fn depth(&self) -> usize {
        self.in_flight.len()
    }

    fn edge(map: &HashMap<Slot, SimTime>, vb: VBufId, device: usize) -> SimTime {
        map.get(&(vb.index(), device)).copied().unwrap_or(0.0)
    }

    fn raise(map: &mut HashMap<Slot, SimTime>, vb: VBufId, device: usize, t: SimTime) {
        let e = map.entry((vb.index(), device)).or_insert(0.0);
        if t > *e {
            *e = t;
        }
    }

    /// Event edges of a read-sync copy: the producer launch of these
    /// bytes on the source (RAW) and in-flight readers of the
    /// destination's instance (WAR).
    pub(crate) fn copy_edges(&self, c: &PlanCopy) -> [SimTime; 2] {
        [
            Self::edge(&self.ready_at, c.vb, c.src_dev),
            Self::edge(&self.read_until, c.vb, c.dst_gpu),
        ]
    }

    /// Record copy `c` completing at `end`. `token` is the destination
    /// stream's event token after the copy was queued, when functional
    /// byte effects are deferred to the streams: the copy is then an
    /// in-flight *reader* of its source instance.
    pub(crate) fn note_copy(&mut self, c: &PlanCopy, end: SimTime, token: Option<u64>) {
        Self::raise(&mut self.ready_at, c.vb, c.dst_gpu, end);
        Self::raise(&mut self.read_until, c.vb, c.src_dev, end);
        if let Some(token) = token {
            self.readers
                .entry((c.vb.index(), c.src_dev))
                .or_default()
                .push((c.dst_gpu, token));
        }
    }

    /// Event edges of a partition launch on `gpu`, into `deps`: the
    /// incoming copies of every buffer it reads and in-flight readers of
    /// every buffer it writes. Returns the in-flight functional readers
    /// of its write buffers' instances on `gpu`, as `(reader device,
    /// event token)` — the launch must cross-stream-wait on each so the
    /// copy's snapshot precedes the overwrite.
    pub(crate) fn launch_edges(
        &mut self,
        plan: &LaunchPlan,
        gpu: usize,
        deps: &mut Vec<SimTime>,
    ) -> Vec<(usize, u64)> {
        deps.clear();
        deps.extend(
            plan.read_bufs
                .iter()
                .map(|b| Self::edge(&self.ready_at, *b, gpu)),
        );
        let mut waits = Vec::new();
        for b in &plan.write_bufs {
            deps.push(Self::edge(&self.read_until, *b, gpu));
            // Readers are only ever recorded on streamed functional
            // machines; everywhere else this skips the hashing.
            if !self.readers.is_empty() {
                waits.extend(self.readers.remove(&(b.index(), gpu)).unwrap_or_default());
            }
        }
        waits
    }

    /// Record a partition launch of `plan` on `gpu` finishing at `end`.
    pub(crate) fn note_launch(&mut self, plan: &LaunchPlan, gpu: usize, end: SimTime) {
        for b in &plan.write_bufs {
            Self::raise(&mut self.ready_at, *b, gpu, end);
        }
        for b in &plan.read_bufs {
            Self::raise(&mut self.read_until, *b, gpu, end);
        }
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
                t.max(Self::edge(&self.ready_at, c.vb, c.dst_gpu))
            });
            self.in_flight.push_back(completion);
        }
        let excess = self.in_flight.len().saturating_sub(depth);
        self.in_flight.drain(..excess)
    }

    /// True when an in-flight operation may still be writing `vb` on
    /// some device — an incoming halo copy or a partition launch that
    /// writes it. Buffers only *read* inside the window never enter
    /// `ready_at`, so they stay cold. Conservative across retired
    /// launches: entries persist until the next drain.
    pub(crate) fn writes_in_flight(&self, vb: VBufId) -> bool {
        !self.in_flight.is_empty() && self.ready_at.keys().any(|&(b, _)| b == vb.index())
    }

    /// Drop all window state, returning the latest in-flight completion
    /// time (if any) for the caller to join the host clock to.
    fn drain(&mut self) -> Option<SimTime> {
        let latest = self.in_flight.iter().copied().reduce(SimTime::max);
        self.in_flight.clear();
        self.ready_at.clear();
        self.read_until.clear();
        self.readers.clear();
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

    /// Current launch-ahead window depth: how many replayed launches
    /// are in flight right now. Read-only — unlike
    /// [`MgpuRuntime::machine_mut`], observing the depth does not flush.
    pub fn pipeline_depth(&self) -> usize {
        self.pipeline.depth()
    }
}
