//! # pml-clusters
//!
//! The data side of the PML-MPI reproduction: the 18-cluster [`mod@zoo`] of the
//! paper's Table I, simulated micro-benchmark [`datagen`] that produces
//! the over-9000-record tuning dataset, the [`record`] row type, and the paper's
//! three train/test [`split`] methodologies.

pub mod cache;
pub mod datagen;
pub mod error;
pub mod record;
pub mod split;
pub mod zoo;

pub use cache::{load_or_generate, CacheLoad, CACHE_VERSION};
pub use datagen::{generate_cluster, generate_full, measure_cell, DatagenConfig};
pub use error::ClustersError;
pub use record::TuningRecord;
pub use split::{cluster_split, cluster_split_auto, node_split, random_split, Split};
pub use zoo::{by_name, zoo, ClusterEntry};
