//! Machine specifications and calibration constants.

use serde::{Deserialize, Serialize};

/// What kind of executor sits behind a device slot. Partitioning is
/// class-agnostic — a "device" is any unit that owns memory and runs a
/// grid range — but copy pricing and roofline parameters differ per
/// class (a host socket has no PCIe hop to host memory).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceClass {
    /// A simulated GPU die behind the PCIe/NVLink interconnect.
    #[default]
    SimGpu,
    /// A host CPU socket: kernels run on host threads against host
    /// memory; "transfers" to/from the host are memcpys.
    HostCpu,
}

/// Performance characteristics of one device.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeviceSpec {
    pub name: String,
    /// Executor class (default `SimGpu` — specs serialized before
    /// device classes existed describe GPU machines).
    #[serde(default)]
    pub class: DeviceClass,
    /// Peak single-precision throughput, FLOP/s.
    pub flops: f64,
    /// Integer/address ALU throughput, op/s.
    pub int_ops: f64,
    /// Device memory bandwidth, bytes/s.
    pub mem_bw: f64,
    /// Fixed kernel launch overhead, seconds (driver + dispatch; for a
    /// `HostCpu` device, thread-pool wakeup).
    pub launch_overhead: f64,
}

/// Characteristics of the inter-device interconnect.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Effective aggregate peer-copy bandwidth, bytes/s.
    pub bandwidth: f64,
    /// Per-transfer setup latency, seconds.
    pub latency: f64,
    /// Peer copies staged through host memory (true for the PCIe-tree K80
    /// system): all peer transfers serialize on the single host staging
    /// engine instead of overlapping pairwise.
    pub host_staged: bool,
}

/// The whole machine: devices behind one interconnect. Homogeneous by
/// default (`device` describes every device); heterogeneous systems
/// override individual devices via [`MachineSpec::with_device_override`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MachineSpec {
    pub n_devices: usize,
    pub device: DeviceSpec,
    /// Per-device replacements for `device`, as `(index, spec)` pairs.
    /// Empty for homogeneous machines (the default; serde-compatible
    /// with specs serialized before heterogeneity existed).
    #[serde(default)]
    pub device_overrides: Vec<(usize, DeviceSpec)>,
    pub link: LinkSpec,
    /// Host↔device link bandwidth, bytes/s (PCIe x16 per root port).
    pub h2d_bandwidth: f64,
    /// Host↔device latency, seconds.
    pub h2d_latency: f64,
    /// Host-side cost charged per enumerated element range (tracker
    /// query plus memcpy issue), seconds. Used by the runtime to model
    /// the "Patterns" overhead of Figure 7/8.
    pub host_per_range: f64,
    /// Host-side cost per tracker segment update, seconds.
    pub host_per_segment: f64,
    /// Host-side cost to orchestrate one partitioned kernel launch
    /// (argument marshalling, enumerator setup), seconds.
    pub host_per_launch: f64,
    /// Host-side cost to replay a captured launch plan (one cache lookup
    /// plus iterating pre-resolved commands), seconds. Charged *instead
    /// of* the per-range/per-segment pattern costs on a plan-cache hit —
    /// the CUDA-Graphs-style amortization of the §5 launch rewrite.
    pub host_per_replay: f64,
    /// Host memcpy bandwidth, bytes/s: prices host↔host "copies" to and
    /// between `HostCpu` devices, which never cross PCIe. 0 (e.g. in a
    /// spec built before device classes existed) falls back to
    /// [`MachineSpec::DEFAULT_HOST_COPY_BANDWIDTH`].
    #[serde(default)]
    pub host_copy_bandwidth: f64,
    /// Host memcpy setup latency, seconds. 0 falls back to
    /// [`MachineSpec::DEFAULT_HOST_COPY_LATENCY`].
    #[serde(default)]
    pub host_copy_latency: f64,
}

impl MachineSpec {
    /// Fallback host memcpy bandwidth (dual-channel DDR4-class) when a
    /// spec predates the field.
    pub const DEFAULT_HOST_COPY_BANDWIDTH: f64 = 20.0e9;
    /// Fallback host memcpy setup latency.
    pub const DEFAULT_HOST_COPY_LATENCY: f64 = 0.3e-6;

    /// The spec of device `d`: the override when one exists, else the
    /// shared `device` spec.
    pub fn device_spec(&self, d: usize) -> &DeviceSpec {
        self.device_overrides
            .iter()
            .find(|(i, _)| *i == d)
            .map(|(_, s)| s)
            .unwrap_or(&self.device)
    }

    /// Executor class of device `d`.
    pub fn device_class(&self, d: usize) -> DeviceClass {
        self.device_spec(d).class
    }

    /// Does any device slot run on host cores? Pricing paths use this to
    /// keep pure-GPU machines on the exact legacy cost expressions.
    pub fn has_host_cpu(&self) -> bool {
        self.device.class == DeviceClass::HostCpu
            || self
                .device_overrides
                .iter()
                .any(|(_, s)| s.class == DeviceClass::HostCpu)
    }

    /// Host memcpy bandwidth with the pre-class-era fallback.
    pub(crate) fn host_copy_bw(&self) -> f64 {
        if self.host_copy_bandwidth > 0.0 {
            self.host_copy_bandwidth
        } else {
            Self::DEFAULT_HOST_COPY_BANDWIDTH
        }
    }

    /// Host memcpy latency with the pre-class-era fallback.
    pub(crate) fn host_copy_lat(&self) -> f64 {
        if self.host_copy_latency > 0.0 {
            self.host_copy_latency
        } else {
            Self::DEFAULT_HOST_COPY_LATENCY
        }
    }

    /// `(latency, bandwidth, staged)` pricing one peer copy from device
    /// `a` to device `b`, by class pair:
    ///
    /// * GPU↔GPU — the interconnect [`MachineSpec::link`], staged when
    ///   `link.host_staged` (bit-exact with the pre-class model);
    /// * CPU↔CPU — a host memcpy: no PCIe hop, never engages the
    ///   staging engine;
    /// * mixed — one PCIe crossing at H2D constants (the bytes end in,
    ///   or start from, host memory — no second hop, no staging bounce).
    pub fn pair_copy_params(&self, a: usize, b: usize) -> (f64, f64, bool) {
        use DeviceClass::*;
        match (self.device_class(a), self.device_class(b)) {
            (SimGpu, SimGpu) => (
                self.link.latency,
                self.link.bandwidth,
                self.link.host_staged,
            ),
            (HostCpu, HostCpu) => (self.host_copy_lat(), self.host_copy_bw(), false),
            _ => (self.h2d_latency, self.h2d_bandwidth, false),
        }
    }

    /// `(latency, bandwidth)` of a host↔device transfer involving device
    /// `d`: PCIe constants for a GPU, a memcpy for a CPU socket.
    pub(crate) fn host_link_params(&self, d: usize) -> (f64, f64) {
        match self.device_class(d) {
            DeviceClass::SimGpu => (self.h2d_latency, self.h2d_bandwidth),
            DeviceClass::HostCpu => (self.host_copy_lat(), self.host_copy_bw()),
        }
    }

    /// Is every device identical?
    pub fn is_homogeneous(&self) -> bool {
        self.device_overrides.is_empty()
    }

    /// Peer-link proximity rank between two devices, used to pick the
    /// *source* of a copy when several replica holders are equally valid:
    /// 0 for the device itself, 1 for its board partner (K80-style
    /// dual-GPU boards pair devices `2k`/`2k+1`), 2 for everything else.
    /// The simulator charges the same uniform [`MachineSpec::link`]
    /// cost regardless of the pair; the tuner's perimeter cost model
    /// additionally scales per-transfer setup latency by this hop
    /// count when pricing a tiling's halo exchanges.
    pub fn link_hops(a: usize, b: usize) -> u32 {
        if a == b {
            0
        } else if a / 2 == b / 2 {
            1
        } else {
            2
        }
    }

    /// Replace the spec of device `d` (builder style), making the
    /// machine heterogeneous.
    pub fn with_device_override(mut self, d: usize, spec: DeviceSpec) -> MachineSpec {
        assert!(d < self.n_devices, "device {d} out of range");
        self.device_overrides.retain(|(i, _)| *i != d);
        self.device_overrides.push((d, spec));
        self
    }

    /// The machine a device subset of this one presents: `devices.len()`
    /// devices behind the same interconnect, with per-device overrides
    /// remapped to subset positions. A fleet scheduler uses this to hand
    /// a tenant a runtime over `devices` while pricing links with the
    /// full machine's constants.
    pub fn subset(&self, devices: &[usize]) -> MachineSpec {
        assert!(!devices.is_empty(), "subset of zero devices");
        let overrides = devices
            .iter()
            .enumerate()
            .filter_map(|(pos, &d)| {
                assert!(d < self.n_devices, "device {d} out of range");
                self.device_overrides
                    .iter()
                    .find(|(i, _)| *i == d)
                    .map(|(_, s)| (pos, s.clone()))
            })
            .collect();
        MachineSpec {
            n_devices: devices.len(),
            device_overrides: overrides,
            ..self.clone()
        }
    }

    /// A Kepler-class system patterned on the paper's testbed: `n` logical
    /// GPUs (K80 dies: ~4.37 SP TFLOP/s, 240 GB/s HBM... GDDR5), PCIe 3.0
    /// interconnect with host-staged peer copies.
    pub fn kepler_system(n_devices: usize) -> MachineSpec {
        MachineSpec {
            n_devices,
            device_overrides: Vec::new(),
            device: DeviceSpec {
                name: "K80-die".into(),
                class: DeviceClass::SimGpu,
                // Effective (not peak) single-precision rate: real kernels
                // on a GK210 die sustain roughly a third of the 4.37 TFLOP/s
                // peak.
                flops: 1.5e12,
                int_ops: 2.0e12,
                mem_bw: 240.0e9,
                launch_overhead: 8.0e-6,
            },
            link: LinkSpec {
                bandwidth: 15.0e9,
                latency: 15.0e-6,
                host_staged: true,
            },
            h2d_bandwidth: 11.0e9,
            h2d_latency: 10.0e-6,
            host_per_range: 0.6e-6,
            host_per_segment: 0.25e-6,
            host_per_launch: 4.0e-6,
            host_per_replay: 1.0e-6,
            host_copy_bandwidth: Self::DEFAULT_HOST_COPY_BANDWIDTH,
            host_copy_latency: Self::DEFAULT_HOST_COPY_LATENCY,
        }
    }

    /// A host CPU socket as a device: `cores` cores of effective AVX
    /// FMA throughput against one socket's DDR channels. Effective (not
    /// peak) rates, like the K80 constants: ~12 GFLOP/s and ~20 Gop/s
    /// per core sustained, 60 GB/s per socket.
    pub(crate) fn host_cpu_device(cores: usize) -> DeviceSpec {
        DeviceSpec {
            name: format!("host-cpu-{cores}c"),
            class: DeviceClass::HostCpu,
            flops: cores as f64 * 12.0e9,
            int_ops: cores as f64 * 20.0e9,
            mem_bw: 60.0e9,
            // Thread-pool dispatch, far below a driver launch.
            launch_overhead: 1.0e-6,
        }
    }

    /// A pure-host machine: `n_sockets` CPU sockets (16 cores each)
    /// sharing host memory. Peer "links" are memcpys — the `link` field
    /// keeps the Kepler constants but every pair prices through
    /// [`MachineSpec::pair_copy_params`] as host copies.
    pub fn cpu_system(n_sockets: usize) -> MachineSpec {
        let mut spec = MachineSpec::kepler_system(n_sockets);
        spec.device = MachineSpec::host_cpu_device(16);
        spec
    }

    /// A heterogeneous machine: `n_gpus` Kepler dies (devices
    /// `0..n_gpus`) plus `n_cpus` 16-core host sockets appended after
    /// them. The tuner's proportional-shares machinery sees the class
    /// rooflines through `device_spec` and sizes each class's share.
    pub fn hybrid_system(n_gpus: usize, n_cpus: usize) -> MachineSpec {
        let mut spec = MachineSpec::kepler_system(n_gpus + n_cpus);
        for c in 0..n_cpus {
            spec = spec.with_device_override(n_gpus + c, MachineSpec::host_cpu_device(16));
        }
        spec
    }

    /// A single-GPU reference machine with the same device silicon
    /// (baseline for speedups).
    pub fn kepler_single() -> MachineSpec {
        MachineSpec::kepler_system(1)
    }

    /// A hypothetical NVLink-class system with the *same* device silicon:
    /// direct peer links (no host staging, transfers overlap pairwise),
    /// 40 GB/s per link, 3 µs setup. Used by the interconnect ablation to
    /// quantify how much of the scaling limits in Figure 6 are the
    /// PCIe-tree interconnect rather than the partitioning approach —
    /// the paper's §1 argument that future NUMA-ish GPU systems make
    /// automatic partitioning more attractive, not less.
    pub fn nvlink_system(n_devices: usize) -> MachineSpec {
        let mut spec = MachineSpec::kepler_system(n_devices);
        spec.link = LinkSpec {
            bandwidth: 40.0e9,
            latency: 3.0e-6,
            host_staged: false,
        };
        spec.h2d_bandwidth = 12.0e9;
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kepler_constants_sane() {
        let m = MachineSpec::kepler_system(16);
        assert_eq!(m.n_devices, 16);
        assert!(m.device.flops > 1e12);
        assert!(m.device.mem_bw > 1e11);
        assert!(m.link.bandwidth < m.device.mem_bw);
        assert!(m.link.host_staged);
    }

    #[test]
    fn device_overrides_make_machines_heterogeneous() {
        let base = MachineSpec::kepler_system(3);
        assert!(base.is_homogeneous());
        let fast = DeviceSpec {
            flops: base.device.flops * 2.0,
            mem_bw: base.device.mem_bw * 2.0,
            ..base.device.clone()
        };
        let m = base.with_device_override(1, fast);
        assert!(!m.is_homogeneous());
        assert_eq!(m.device_spec(0).flops, m.device_spec(2).flops);
        assert_eq!(m.device_spec(1).flops, m.device_spec(0).flops * 2.0);
        // Overriding the same device twice keeps the last spec.
        let base_device = m.device.clone();
        let m = m.with_device_override(1, base_device);
        assert!(m.device_overrides.len() == 1);
        assert_eq!(m.device_spec(1).flops, m.device_spec(0).flops);
    }

    #[test]
    fn class_pair_pricing_matches_device_classes() {
        let m = MachineSpec::hybrid_system(2, 1);
        assert!(m.has_host_cpu());
        assert_eq!(m.device_class(0), DeviceClass::SimGpu);
        assert_eq!(m.device_class(2), DeviceClass::HostCpu);
        // GPU↔GPU: the interconnect, staged on the PCIe tree.
        assert_eq!(
            m.pair_copy_params(0, 1),
            (m.link.latency, m.link.bandwidth, true)
        );
        // Mixed: one PCIe crossing, never staged.
        assert_eq!(
            m.pair_copy_params(0, 2),
            (m.h2d_latency, m.h2d_bandwidth, false)
        );
        // CPU↔CPU (pure-host machine): a memcpy.
        let c = MachineSpec::cpu_system(2);
        assert!(c.has_host_cpu() && c.is_homogeneous());
        assert_eq!(
            c.pair_copy_params(0, 1),
            (c.host_copy_lat(), c.host_copy_bw(), false)
        );
        assert_eq!(c.host_link_params(0), (c.host_copy_lat(), c.host_copy_bw()));
        // Pure-GPU machines keep the exact legacy constants.
        let g = MachineSpec::kepler_system(2);
        assert!(!g.has_host_cpu());
        assert_eq!(g.host_link_params(1), (g.h2d_latency, g.h2d_bandwidth));
    }

    #[test]
    fn host_copy_constants_fall_back_when_zeroed() {
        let mut m = MachineSpec::cpu_system(1);
        m.host_copy_bandwidth = 0.0;
        m.host_copy_latency = 0.0;
        assert_eq!(m.host_copy_bw(), MachineSpec::DEFAULT_HOST_COPY_BANDWIDTH);
        assert_eq!(m.host_copy_lat(), MachineSpec::DEFAULT_HOST_COPY_LATENCY);
    }

    #[test]
    fn subset_remaps_overrides_to_subset_positions() {
        let base = MachineSpec::kepler_system(4);
        let fast = DeviceSpec {
            flops: base.device.flops * 2.0,
            ..base.device.clone()
        };
        let m = base.with_device_override(2, fast);
        let sub = m.subset(&[2, 3]);
        assert_eq!(sub.n_devices, 2);
        // Physical device 2 is subset position 0.
        assert_eq!(sub.device_spec(0).flops, m.device_spec(2).flops);
        assert_eq!(sub.device_spec(1).flops, m.device.flops);
        // A homogeneous subset of a heterogeneous machine carries no
        // overrides at all.
        assert!(m.subset(&[0, 1]).is_homogeneous());
    }
}
