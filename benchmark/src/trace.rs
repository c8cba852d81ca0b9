//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each crate's public functions (spans inside the crates are a
//! later issue). Every span feeds per-round aggregates — total time,
//! self time (duration minus the part its children cover) and call count
//! per span kind; the full span list, with parent and round id, is kept
//! only for the first [`DETAIL_ROUNDS`] rounds and written as
//! Chrome-trace JSON when the workload ends, so the hit path's millions
//! of launches neither fill memory nor produce a file nobody can load.

use std::time::Instant;

/// Traced rounds whose individual spans go to the Chrome-trace file.
const DETAIL_ROUNDS: u32 = 2;
/// Upper bound on spans kept for the file.
const DETAIL_SPAN_CAP: usize = 200_000;

macro_rules! kinds {
    ($($id:ident => $name:literal),+ $(,)?) => {
        /// A span kind: `<layer>.<call>`; the layer is the crate name.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum Kind { $($id),+ }

        impl Kind {
            pub const ALL: &'static [Kind] = &[$(Kind::$id),+];

            pub fn name(self) -> &'static str {
                match self { $(Kind::$id => $name),+ }
            }
        }
    };
}

kinds! {
    // The driver's own structure (not a layer): a timed section of a
    // round, and compile-check's staged replay (traced rounds only,
    // outside round time).
    Timed => "driver.timed",
    Staged => "driver.staged_replay",
    // compile-check, whole calls.
    CompileSource => "core.compile_source",
    CheckApp => "check.check_app",
    // compile-check, staged replay in pipeline order.
    Parse => "frontend.parse_program",
    Annotate => "analysis.annotations",
    Analyze => "analysis.analyze_kernel_with",
    ToJson => "analysis.to_json",
    FromJson => "analysis.from_json",
    Rewrite => "rewriter.rewrite_host",
    EnumBuild => "enumgen.build",
    SafeAxes => "check.safe_axes",
    PartKernel => "partition.partition_kernel",
    Project => "poly.project_out_dims",
    Injective => "poly.is_injective",
    // Launch workloads.
    Malloc => "runtime.malloc",
    H2d => "runtime.memcpy_h2d",
    D2h => "runtime.memcpy_d2h",
    Sync => "runtime.synchronize",
    LaunchHit => "runtime.launch_hit",
    LaunchMiss => "runtime.launch_miss",
    LaunchFirst => "runtime.launch_first",
}

const N_KINDS: usize = Kind::ALL.len();

impl Kind {
    /// The crate the span charges; `driver` spans are structure, not a
    /// layer.
    pub fn layer(self) -> &'static str {
        self.name()
            .split('.')
            .next()
            .expect("kind names have a layer")
    }

    /// Is this a span of compile-check's staged replay (outside round
    /// time) rather than of a timed round?
    pub fn is_staged(self) -> bool {
        (Kind::Staged as u8..=Kind::Injective as u8).contains(&(self as u8))
            && !matches!(self, Kind::CompileSource | Kind::CheckApp)
    }
}

/// Per-kind totals of one round, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub total_ns: u64,
    pub self_ns: u64,
    pub calls: u64,
}

struct Frame {
    kind: Kind,
    start_ns: u64,
    child_ns: u64,
    /// Index of this span in `spans`, when it is being kept.
    detail: Option<u32>,
}

struct Span {
    kind: Kind,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    round: u32,
}

pub struct Tracer {
    /// Off in untraced rounds: `begin`/`end` return at once.
    pub on: bool,
    t0: Instant,
    stack: Vec<Frame>,
    cur: [Agg; N_KINDS],
    /// One entry per traced round.
    pub rounds: Vec<[Agg; N_KINDS]>,
    round: u32,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            t0: Instant::now(),
            stack: Vec::with_capacity(8),
            cur: [Agg::default(); N_KINDS],
            rounds: Vec::new(),
            round: 0,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    #[inline]
    pub fn begin(&mut self, kind: Kind) {
        if !self.on {
            return;
        }
        let detail =
            (self.round < DETAIL_ROUNDS && self.spans.len() < DETAIL_SPAN_CAP).then(|| {
                let parent = self.stack.last().and_then(|f| f.detail);
                self.spans.push(Span {
                    kind,
                    start_ns: 0,
                    end_ns: 0,
                    parent,
                    round: self.round,
                });
                (self.spans.len() - 1) as u32
            });
        let start_ns = self.now_ns();
        self.stack.push(Frame {
            kind,
            start_ns,
            child_ns: 0,
            detail,
        });
    }

    #[inline]
    pub fn end(&mut self) {
        self.end_with(|k| k);
    }

    /// Close the innermost span and let `classify` rename it — a launch
    /// is only known to be a hit, a miss or a first launch once it has
    /// returned. The end time is taken before `classify` runs.
    #[inline]
    pub fn end_with(&mut self, classify: impl FnOnce(Kind) -> Kind) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let f = self.stack.pop().expect("end without begin");
        let kind = classify(f.kind);
        let dur = end_ns - f.start_ns;
        let a = &mut self.cur[kind as usize];
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(f.child_ns);
        a.calls += 1;
        if let Some(p) = self.stack.last_mut() {
            p.child_ns += dur;
        }
        if let Some(i) = f.detail {
            let s = &mut self.spans[i as usize];
            s.kind = kind;
            s.start_ns = f.start_ns;
            s.end_ns = end_ns;
        }
    }

    /// Close the books of one traced round.
    pub fn round_end(&mut self) {
        if !self.on {
            return;
        }
        assert!(self.stack.is_empty(), "span left open at round end");
        self.rounds
            .push(std::mem::replace(&mut self.cur, [Agg::default(); N_KINDS]));
        self.round += 1;
    }

    /// Median over traced rounds of `f(round aggregate of kind)`,
    /// ignoring rounds where the kind was never called; 0 if it never
    /// was.
    pub fn median_of(&self, kind: Kind, f: impl Fn(&Agg) -> f64) -> f64 {
        let mut v: Vec<f64> = self
            .rounds
            .iter()
            .map(|r| &r[kind as usize])
            .filter(|a| a.calls > 0)
            .map(f)
            .collect();
        if v.is_empty() {
            return 0.0;
        }
        v.sort_by(f64::total_cmp);
        crate::metrics::percentile(&v, 50.0)
    }

    /// Median microseconds per round spent in `kind`.
    pub fn us_per_round(&self, kind: Kind) -> f64 {
        self.median_of(kind, |a| a.total_ns as f64 / 1e3)
    }

    /// Median over rounds of the mean microseconds per call of `kind`.
    pub fn us_per_call(&self, kind: Kind) -> f64 {
        self.median_of(kind, |a| a.total_ns as f64 / 1e3 / a.calls as f64)
    }

    /// Self time per span kind summed over all traced rounds, in
    /// nanoseconds, largest first — of the timed rounds, or of
    /// compile-check's staged replay. A layer's self time is the sum of
    /// its kinds'; the `driver.*` entry is time under no layer span.
    pub fn self_ns(&self, staged: bool) -> Vec<(Kind, u64)> {
        let mut out: Vec<(Kind, u64)> = Kind::ALL
            .iter()
            .filter(|k| k.is_staged() == staged)
            .map(|&k| (k, self.rounds.iter().map(|r| r[k as usize].self_ns).sum()))
            .filter(|&(_, ns)| ns > 0)
            .collect();
        out.sort_by_key(|&(k, ns)| (std::cmp::Reverse(ns), k as u8));
        out
    }

    /// Share of timed round time that no layer span covers, in percent.
    pub fn unattributed_pct(&self) -> f64 {
        let (mut total, mut own) = (0u64, 0u64);
        for r in &self.rounds {
            total += r[Kind::Timed as usize].total_ns;
            own += r[Kind::Timed as usize].self_ns;
        }
        if total == 0 {
            return 0.0;
        }
        100.0 * own as f64 / total as f64
    }

    /// The kept spans as Chrome-trace JSON (`chrome://tracing`,
    /// Perfetto): complete events on one thread, microsecond timestamps,
    /// parent span index and round id in `args`.
    pub fn chrome_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(self.spans.len() * 120 + 256);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":\"");
        out.push_str(workload);
        out.push_str("\"},\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"round\":{}}}}}",
                s.kind.name(),
                s.kind.layer(),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.round,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}
