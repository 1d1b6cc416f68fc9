//! Transformation passes of the paper's §2 procedure, applied to transitive
//! closure in §3, plus the **G-graph** they produce (Fig. 17).
//!
//! Pipeline stages (each stage is a [`systolic_dgraph::DependenceGraph`]
//! whose evaluation must equal Warshall's — verified by tests):
//!
//! | Stage | Paper | Property established |
//! |---|---|---|
//! | `closure_lean` (from `systolic-dgraph`) | Fig. 11 | superfluous nodes removed |
//! | [`stages::pipelined`] | Fig. 12 | broadcasting → pipelined chains |
//! | [`stages::unidirectional`] | Fig. 13–14 | bi-directional flow removed by flipping |
//! | [`stages::regular`] | Fig. 15–16 | uniform communication via delay nodes |
//! | [`GenericGGraph::closure`] | Fig. 17 | diagonal paths collapsed into G-nodes |
//!
//! [`ggraph::eval`] is that G-graph's stream semantics, [`validate`]
//! re-checks each claimed property with the `systolic-dgraph` analyses,
//! and [`grouping`] explores the Fig. 6 G-node alternatives and
//! the §4.3 varying-computation-time profiles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generic;
pub mod ggraph;
pub mod grouping;
pub mod stages;
pub mod validate;

pub use generic::{GFamily, GRowSpec, GenRole, GenericGGraph};
pub use grouping::{
    faddeev_time_grid, givens_time_grid, grouping_profile, lu_time_grid,
    triangular_inverse_time_grid, GroupingAxis, TimeGrid,
};
pub use stages::{pipelined, regular, unidirectional};
pub use validate::{validate_stage, StageProperties};
