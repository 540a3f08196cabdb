//! Typed units and hardware descriptions for the SN40L reproduction.
//!
//! This crate is the foundation of the workspace: every other crate talks
//! about time, bytes, bandwidth, and FLOPs through the newtypes defined in
//! [`units`], and instantiates hardware through the spec structs in [`chip`],
//! [`socket`], [`node`], and [`gpu`]. All numbers that cannot be derived from
//! the paper or public datasheets live in [`calib`] with documentation of
//! where they come from. [`hash`] pins the seeded hash every routing and
//! signature decision goes through.
//!
//! # Example
//!
//! ```
//! use sn_arch::prelude::*;
//!
//! let socket = SocketSpec::sn40l();
//! // One SN40L socket: 638 BF16 TFLOPS, 64 GiB HBM, up to 1.5 TiB DDR.
//! assert!((socket.peak_bf16().as_tflops() - 638.0).abs() < 2.0);
//! assert_eq!(socket.hbm.capacity, Bytes::from_gib(64));
//! let node = NodeSpec::sn40l_node();
//! assert_eq!(node.sockets, 8);
//! ```

pub mod calib;
pub mod chip;
pub mod gpu;
pub mod hash;
pub mod node;
pub mod roofline;
pub mod socket;
pub mod units;

pub mod prelude {
    //! Convenient glob import of the most commonly used items.
    pub use crate::calib::{Calibration, Orchestration};
    pub use crate::chip::{AgcuSpec, PcuSpec, PmuSpec, RduChipSpec, TileGeometry};
    pub use crate::gpu::{DgxSpec, GpuSpec};
    pub use crate::node::NodeSpec;
    pub use crate::socket::{DdrSpec, HbmSpec, SocketSpec};
    pub use crate::units::{Bandwidth, Bytes, Cycles, FlopRate, Flops, Frequency, TimeSecs};
}

pub use prelude::*;
