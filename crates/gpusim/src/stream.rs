//! Per-device command streams: the asynchronous execution engine.
//!
//! The timing model already treats launches and copies as asynchronous —
//! every operation is *charged* to the per-device clocks at submission.
//! Functionally, however, the serial engine applied byte effects on the
//! host thread at submission time, so a functional 4-GPU run executed its
//! partitions one after another in wall-clock time.
//!
//! This module defers the **byte effects** instead: each device owns a
//! command stream (an ordered queue of [`StreamOp`]s), and a flush drains
//! all streams concurrently, one worker thread per device. Simulated time
//! is untouched — it was already charged at enqueue — so streamed and
//! serial execution report identical clocks and counters; only wall-clock
//! time and scheduling change, exactly like enabling real CUDA streams.
//!
//! Ordering guarantees mirror CUDA's stream semantics:
//!
//! * ops on one device execute in submission order;
//! * a peer copy enqueued on the destination device carries an **event
//!   token**: the length of the source device's stream at submission. The
//!   worker waits until the source stream has completed that many ops, so
//!   the copy observes exactly the source bytes it would have seen under
//!   serial execution (Figure 4's barrier between sync and launch phases).
//!
//! Deadlock freedom: an op may only wait on ops submitted strictly before
//! it (host submission is a total order), so the wait graph is a DAG.

use crate::shadow::{run_program, BufStore};
use mekong_kernel::interp::KernelArg;
use mekong_kernel::{Dim3, Program};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::VecDeque;
use std::sync::Arc;

/// A deferred byte effect on one device's memory.
pub enum StreamOp {
    /// Host payload landing in device memory (functional half of an H2D
    /// copy; the bytes were snapshotted at submission, so the host buffer
    /// is immediately reusable).
    WriteBytes {
        handle: usize,
        offset: usize,
        data: Vec<u8>,
    },
    /// Functional kernel execution over the device store, of the program
    /// the launch lowered.
    Kernel {
        program: Arc<Program>,
        args: Vec<KernelArg>,
        grid: Dim3,
        block: Dim3,
    },
    /// Peer copy into this device. Waits until `src_device`'s stream has
    /// completed `src_event` ops before reading.
    CopyD2D {
        src_device: usize,
        src_event: u64,
        src_handle: usize,
        src_offset: usize,
        dst_handle: usize,
        dst_offset: usize,
        len: usize,
    },
    /// Cross-stream event wait: stall this stream until `device`'s stream
    /// has completed `event` ops. Used by the launch-ahead pipeline to
    /// order a kernel after in-flight peer copies that still *read* bytes
    /// this kernel is about to overwrite (write-after-read), now that no
    /// global barrier separates the sync and launch phases.
    WaitEvent { device: usize, event: u64 },
}

/// One device's command stream plus its completion-event state.
pub struct DeviceStream {
    /// Pending ops, oldest first.
    pub(crate) queue: Mutex<VecDeque<StreamOp>>,
    /// Ops ever submitted (host side; monotonic across flushes). The
    /// value at submission time doubles as the event token peers wait on.
    pub(crate) submitted: u64,
    /// Ops ever completed; workers advance it under the mutex.
    completed: Mutex<u64>,
    /// Signalled on every completion; peers `wait_event` on it.
    done: Condvar,
}

impl DeviceStream {
    pub(crate) fn new() -> DeviceStream {
        DeviceStream {
            queue: Mutex::new(VecDeque::new()),
            submitted: 0,
            completed: Mutex::new(0),
            done: Condvar::new(),
        }
    }

    /// Submit an op (host thread; requires `&mut` — submission is never
    /// concurrent with a flush).
    pub(crate) fn push(&mut self, op: StreamOp) {
        self.queue.get_mut().push_back(op);
        self.submitted += 1;
    }

    pub(crate) fn is_idle(&self) -> bool {
        self.queue.lock().is_empty()
    }

    /// Record one completed op and wake any waiting peers.
    pub(crate) fn signal_completion(&self) {
        *self.completed.lock() += 1;
        self.done.notify_all();
    }

    /// Block until this stream has completed at least `event` ops.
    pub(crate) fn wait_event(&self, event: u64) {
        let mut done = self.completed.lock();
        while *done < event {
            done = self.done.wait(done);
        }
    }
}

/// Apply one op to its device's store (worker thread). `stores[d]` is the
/// per-device memory; peers are read under their own lock, two-phase, so
/// no worker ever holds two store locks at once.
pub(crate) fn apply_op(
    op: StreamOp,
    device: usize,
    stores: &[&RwLock<BufStore>],
    streams: &[DeviceStream],
) -> crate::Result<()> {
    match op {
        StreamOp::WriteBytes {
            handle,
            offset,
            data,
        } => {
            let mut store = stores[device].write();
            store.bytes_mut(handle)[offset..offset + data.len()].copy_from_slice(&data);
            Ok(())
        }
        StreamOp::Kernel {
            program,
            args,
            grid,
            block,
        } => {
            let mut store = stores[device].write();
            run_program(&program, &args, grid, block, &mut store, false)?;
            Ok(())
        }
        StreamOp::CopyD2D {
            src_device,
            src_event,
            src_handle,
            src_offset,
            dst_handle,
            dst_offset,
            len,
        } => {
            streams[src_device].wait_event(src_event);
            // Two-phase: snapshot the source under a read lock, release,
            // then write the destination. Safe even when src == dst.
            let data = {
                let src = stores[src_device].read();
                src.bytes(src_handle)[src_offset..src_offset + len].to_vec()
            };
            let mut dst = stores[device].write();
            dst.bytes_mut(dst_handle)[dst_offset..dst_offset + len].copy_from_slice(&data);
            Ok(())
        }
        StreamOp::WaitEvent { device, event } => {
            streams[device].wait_event(event);
            Ok(())
        }
    }
}
