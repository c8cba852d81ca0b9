//! One module per artifact; each exposes `run(&BenchArgs) -> GateResult`.

pub mod ablation_backend;
pub mod ablation_distribution;
pub mod ablation_interconnect;
pub mod ablation_interval;
pub mod ablation_pipeline;
pub mod ablation_replay;
pub mod ablation_replica;
pub mod ablation_serve;
pub mod ablation_split_dim;
pub mod ablation_streams;
pub mod ablation_tiling;
pub mod ablation_tracker;
pub mod ablation_tuner;
pub mod compile_time;
pub mod dump_models;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod single_gpu_overhead;
pub mod table1;
