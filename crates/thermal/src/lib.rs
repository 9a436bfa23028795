#![warn(missing_docs)]
//! # mira-thermal — a HotSpot-style steady-state thermal model
//!
//! The MIRA paper uses HotSpot 4.0 to study how short-flit layer
//! shutdown lowers chip temperature (paper §4.2.3, Fig. 13(c)). This
//! crate rebuilds the part of HotSpot that analysis needs: a
//! steady-state RC thermal network over a stack of active silicon
//! layers, with
//!
//! * per-layer rectangular grids of cells (one per floorplan block),
//! * lateral conduction between neighbouring cells in a layer,
//! * vertical conduction through the die and the inter-layer bond,
//! * a heat-spreader/heat-sink path from the top layer to ambient.
//!
//! Temperatures come from solving `G · T = P` (conductance matrix ×
//! temperatures = power injection) with Gauss–Seidel iteration — the
//! same formulation HotSpot uses for its steady-state grid mode.
//!
//! The crate is deliberately independent of the NoC simulator: it takes
//! a power map (W per cell per layer) and returns temperatures (K). The
//! MIRA facade wires router/CPU/cache powers into the map.
//!
//! ## Example
//!
//! ```
//! use mira_thermal::{ChipModel, StackConfig};
//!
//! // A single-layer 2×2 chip, one hot cell.
//! let mut chip = ChipModel::new(StackConfig::planar(2, 2, 0.004, 0.004));
//! chip.set_cell_power(0, 0, 0, 10.0);
//! let t = chip.solve();
//! assert!(t.max_k() > t.ambient_k());
//! ```

pub mod material;
pub mod solver;
pub mod stack;

pub use material::{Material, AMBIENT_K};
pub use solver::{SolveOptions, Temperatures};
pub use stack::{ChipModel, StackConfig};
