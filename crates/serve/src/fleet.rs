//! The fleet server: tenant registration with tuner-ranked placement,
//! the round-robin executor, and the shared persistent plan cache.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use mekong_core::prelude::{
    compile_source, Dim3, LaunchArg, Machine, MachineSpec, MgpuRuntime, RuntimeConfig, VBufId,
    Value,
};
use mekong_runtime::{load_snapshot_json, snapshot_to_json, PlanCache};
use mekong_tuner::preferred_devices;

use crate::tenant::{Tenant, TenantId, TenantOp, TenantStats, Ticket};
use crate::{Result, ServeError};

/// Fleet-wide configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The whole machine tenants are placed onto.
    pub spec: MachineSpec,
    /// Functional machines store real data (needed for H2D/D2H with
    /// payloads); performance machines only track time.
    pub functional: bool,
    /// Runtime configuration applied to every tenant runtime (and the
    /// placement scout). `plan_cache_capacity` governs the *shared*
    /// cache.
    pub runtime: RuntimeConfig,
    /// Upper bound on the device-subset size any one tenant may occupy
    /// (`0` = the whole fleet is allowed).
    pub max_devices_per_tenant: usize,
}

impl FleetConfig {
    /// A functional Kepler fleet of `n` devices with the tuned runtime
    /// configuration — capture, replica coherence and launch-ahead on.
    pub fn functional_fleet(n: usize) -> FleetConfig {
        FleetConfig {
            spec: MachineSpec::kepler_system(n),
            functional: true,
            runtime: RuntimeConfig::tuned(),
            max_devices_per_tenant: 0,
        }
    }
}

/// Declarative description of a tenant's steady-state launch, used once
/// at registration to size its device subset: the fleet ranks the
/// tuner's candidates for this launch on the *full* fleet spec and
/// places the tenant on as many devices as the cheapest candidate wants
/// (capped by [`FleetConfig::max_devices_per_tenant`]).
#[derive(Debug, Clone)]
pub struct Probe {
    pub kernel: String,
    pub grid: Dim3,
    pub block: Dim3,
    pub args: Vec<ProbeArg>,
}

/// One probe argument: a scalar value, or a buffer described by size
/// (allocated in a scratch runtime for the ranking only).
#[derive(Debug, Clone)]
pub enum ProbeArg {
    Scalar(Value),
    Buf { bytes: usize, elem_size: usize },
}

/// The multi-tenant serving front-end. Tenants register a mini-CUDA
/// program and get a namespace-isolated runtime over a placed device
/// subset; ops are submitted asynchronously into per-tenant FIFOs and
/// executed by [`FleetServer::step`] / [`FleetServer::drain`]. All
/// tenant runtimes share one plan cache, so identical workloads
/// from different tenants replay each other's captured plans, and the
/// cache can be snapshotted/restored across server processes
/// ([`FleetServer::snapshot_plans`] / [`FleetServer::load_plans`]).
pub struct FleetServer {
    cfg: FleetConfig,
    cache: Rc<RefCell<PlanCache>>,
    /// Tenant slots in registration order. A removed tenant leaves a
    /// `None` tombstone so every other tenant's [`TenantId`] (and its
    /// namespace, which is the slot index + 1) stays valid for the
    /// server's lifetime.
    tenants: Vec<Option<Tenant>>,
    /// Tenants currently occupying each physical device.
    load: Vec<usize>,
}

impl FleetServer {
    pub fn new(cfg: FleetConfig) -> FleetServer {
        let cache = Rc::new(RefCell::new(PlanCache::new(
            cfg.runtime.plan_cache_capacity,
        )));
        let load = vec![0; cfg.spec.n_devices];
        FleetServer {
            cfg,
            cache,
            tenants: Vec::new(),
            load,
        }
    }

    /// Compile `source`, size the tenant's device subset by ranking the
    /// tuner's candidates for `probe` on the full fleet, place it on the
    /// least-loaded devices of that size (lowest index on ties), and
    /// stand up its namespace-isolated runtime against the shared plan
    /// cache.
    pub fn register_tenant(&mut self, name: &str, source: &str, probe: &Probe) -> Result<TenantId> {
        let program =
            compile_source(source).map_err(|e| ServeError::Compile(format!("{name}: {e:?}")))?;
        let ck = program
            .kernel(&probe.kernel)
            .ok_or_else(|| ServeError::UnknownKernel(probe.kernel.clone()))?;

        // Rank on the full fleet so the candidate list covers every
        // subset size the fleet could grant.
        let mut scout = MgpuRuntime::new(Machine::new(self.cfg.spec.clone(), false));
        scout.set_config(self.cfg.runtime);
        let mut args = Vec::with_capacity(probe.args.len());
        for a in &probe.args {
            args.push(match a {
                ProbeArg::Scalar(v) => LaunchArg::Scalar(*v),
                ProbeArg::Buf { bytes, elem_size } => {
                    LaunchArg::Buf(scout.malloc(*bytes, *elem_size)?)
                }
            });
        }
        let cands = scout.tuner_candidates(ck, probe.grid, probe.block, &args)?;
        let cap = match self.cfg.max_devices_per_tenant {
            0 => self.cfg.spec.n_devices,
            m => m.min(self.cfg.spec.n_devices),
        };
        let want = preferred_devices(&cands, cap);
        let devices = self.place(want);

        let mut rt = MgpuRuntime::new(Machine::new(
            self.cfg.spec.subset(&devices),
            self.cfg.functional,
        ));
        // Order matters: set_config clears and re-caps the attached
        // cache, set_namespace requires an empty runtime, and only then
        // is the shared cache attached (so a tenant's config can never
        // wipe plans other tenants captured).
        rt.set_config(self.cfg.runtime);
        let id = self.tenants.len();
        rt.set_namespace((id + 1) as u32)?;
        rt.set_plan_cache(self.cache.clone());

        self.tenants.push(Some(Tenant {
            name: name.to_string(),
            rt,
            program,
            devices,
            queue: VecDeque::new(),
            outputs: Vec::new(),
            bytes_h2d: 0,
            bytes_d2h: 0,
            ops_submitted: 0,
            ops_completed: 0,
        }));
        Ok(TenantId(id))
    }

    /// Deregister a tenant: its queued-but-unexecuted ops are discarded,
    /// its namespace-isolated runtime (and every buffer in it) is
    /// dropped, and the load it charged to its devices is returned to
    /// the placement pool so later registrations can claim them. Plans
    /// the tenant captured stay in the shared cache — they are keyed by
    /// content and remain replayable by other namespaces. The slot is
    /// tombstoned: other tenants' ids stay valid and the removed id
    /// fails with `BadTenant` from then on. Returns the number of
    /// discarded queued ops.
    pub fn remove_tenant(&mut self, t: TenantId) -> Result<usize> {
        let slot = self
            .tenants
            .get_mut(t.0)
            .ok_or(ServeError::BadTenant(t.0))?;
        let tenant = slot.take().ok_or(ServeError::BadTenant(t.0))?;
        for &d in &tenant.devices {
            debug_assert!(self.load[d] > 0);
            self.load[d] = self.load[d].saturating_sub(1);
        }
        Ok(tenant.queue.len())
    }

    /// Occupancy-aware placement: the `want` least-loaded physical
    /// devices, ties broken by lowest index; the chosen set is charged
    /// to the load map.
    fn place(&mut self, want: usize) -> Vec<usize> {
        let n = self.cfg.spec.n_devices;
        let k = want.clamp(1, n);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&d| (self.load[d], d));
        let mut devices: Vec<usize> = order.into_iter().take(k).collect();
        devices.sort_unstable();
        for &d in &devices {
            self.load[d] += 1;
        }
        devices
    }

    fn tenant_mut(&mut self, t: TenantId) -> Result<&mut Tenant> {
        self.tenants
            .get_mut(t.0)
            .and_then(Option::as_mut)
            .ok_or(ServeError::BadTenant(t.0))
    }

    fn tenant(&self, t: TenantId) -> Result<&Tenant> {
        self.tenants
            .get(t.0)
            .and_then(Option::as_ref)
            .ok_or(ServeError::BadTenant(t.0))
    }

    /// Allocate a virtual buffer in the tenant's namespace. Immediate
    /// (not queued): the handle is needed to build subsequent ops.
    pub fn malloc(&mut self, t: TenantId, bytes: usize, elem_size: usize) -> Result<VBufId> {
        Ok(self.tenant_mut(t)?.rt.malloc(bytes, elem_size)?)
    }

    /// Queue a host-to-device upload of `data` into `dst`.
    pub fn submit_h2d(&mut self, t: TenantId, dst: VBufId, data: Vec<u8>) -> Result<()> {
        let tenant = self.tenant_mut(t)?;
        tenant.queue.push_back(TenantOp::H2d { dst, data });
        tenant.ops_submitted += 1;
        Ok(())
    }

    /// Queue a kernel launch. The kernel name is resolved against the
    /// tenant's program at execution; an unknown name fails the step.
    pub fn submit_launch(
        &mut self,
        t: TenantId,
        kernel: &str,
        grid: Dim3,
        block: Dim3,
        args: Vec<LaunchArg>,
    ) -> Result<()> {
        let tenant = self.tenant_mut(t)?;
        if tenant.program.kernel(kernel).is_none() {
            return Err(ServeError::UnknownKernel(kernel.to_string()));
        }
        tenant.queue.push_back(TenantOp::Launch {
            kernel: kernel.to_string(),
            grid,
            block,
            args,
        });
        tenant.ops_submitted += 1;
        Ok(())
    }

    /// Queue a device-to-host read-back of the whole buffer; the result
    /// is redeemable via [`FleetServer::take_output`] once executed.
    pub fn submit_d2h(&mut self, t: TenantId, src: VBufId) -> Result<Ticket> {
        let tenant = self.tenant_mut(t)?;
        let ticket = tenant.outputs.len();
        tenant.outputs.push(None);
        tenant.queue.push_back(TenantOp::D2h { src, ticket });
        tenant.ops_submitted += 1;
        Ok(Ticket(ticket))
    }

    /// Queue a synchronize (drains the tenant runtime's launch-ahead
    /// pipeline when it executes).
    pub fn submit_sync(&mut self, t: TenantId) -> Result<()> {
        let tenant = self.tenant_mut(t)?;
        tenant.queue.push_back(TenantOp::Sync);
        tenant.ops_submitted += 1;
        Ok(())
    }

    /// Execute the tenant's oldest queued op. Returns `false` when the
    /// queue was empty. Exposed so tests can drive arbitrary
    /// interleavings; production callers use [`FleetServer::drain`].
    pub fn step(&mut self, t: TenantId) -> Result<bool> {
        let tenant = self
            .tenants
            .get_mut(t.0)
            .and_then(Option::as_mut)
            .ok_or(ServeError::BadTenant(t.0))?;
        let Some(op) = tenant.queue.pop_front() else {
            return Ok(false);
        };
        match op {
            TenantOp::H2d { dst, data } => {
                tenant.rt.memcpy_h2d(dst, &data)?;
                tenant.bytes_h2d += data.len() as u64;
            }
            TenantOp::Launch {
                kernel,
                grid,
                block,
                args,
            } => {
                let ck = tenant
                    .program
                    .kernel(&kernel)
                    .ok_or(ServeError::UnknownKernel(kernel.clone()))?;
                tenant.rt.launch(ck, grid, block, &args)?;
            }
            TenantOp::D2h { src, ticket } => {
                let mut out = vec![0u8; tenant.rt.buffer_len(src)];
                tenant.rt.memcpy_d2h(src, &mut out)?;
                tenant.bytes_d2h += out.len() as u64;
                tenant.outputs[ticket] = Some(out);
            }
            TenantOp::Sync => tenant.rt.synchronize(),
        }
        tenant.ops_completed += 1;
        Ok(true)
    }

    /// Run every tenant's queue to completion, one op per tenant per
    /// sweep (deterministic round-robin in registration order).
    pub fn drain(&mut self) -> Result<()> {
        loop {
            let mut progressed = false;
            for i in 0..self.tenants.len() {
                if self.tenants[i].is_some() {
                    progressed |= self.step(TenantId(i))?;
                }
            }
            if !progressed {
                return Ok(());
            }
        }
    }

    /// Redeem a read-back ticket. `None` until the op has executed;
    /// taking moves the bytes out (a second take returns `None`).
    pub fn take_output(&mut self, t: TenantId, ticket: Ticket) -> Result<Option<Vec<u8>>> {
        let tenant = self.tenant_mut(t)?;
        Ok(tenant.outputs.get_mut(ticket.0).and_then(Option::take))
    }

    /// Accounting snapshot of one tenant.
    pub fn stats(&self, t: TenantId) -> Result<TenantStats> {
        Ok(self.tenant(t)?.stats())
    }

    /// Accounting snapshots of all *live* tenants, in registration
    /// order (removed tenants are skipped).
    pub fn fleet_stats(&self) -> Vec<TenantStats> {
        self.tenants
            .iter()
            .filter_map(|t| t.as_ref().map(Tenant::stats))
            .collect()
    }

    /// Number of live (not removed) tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.iter().filter(|t| t.is_some()).count()
    }

    /// Tenants currently occupying each physical device.
    pub fn device_load(&self) -> &[usize] {
        &self.load
    }

    /// Handle to the shared plan cache (e.g. to inspect `len`).
    pub fn plan_cache(&self) -> &Rc<RefCell<PlanCache>> {
        &self.cache
    }

    /// Serialize the shared plan cache to a versioned JSON snapshot
    /// (deterministic: independent of capture order).
    pub fn snapshot_plans(&self) -> String {
        snapshot_to_json(&self.cache.borrow())
    }

    /// Load a snapshot into the shared plan cache (all-or-nothing;
    /// entries keep the namespace that captured them, so warm-start hits
    /// count as shared). Returns the number of plans loaded.
    pub fn load_plans(&self, json: &str) -> Result<usize> {
        Ok(load_snapshot_json(&mut self.cache.borrow_mut(), json)?)
    }
}
