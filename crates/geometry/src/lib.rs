//! # fatrobots-geometry
//!
//! The 2-D computational-geometry substrate used by the fat-robot gathering
//! algorithm of Agathangelou, Georgiou & Mavronicolas (PODC 2013).
//!
//! The crate is deliberately self-contained (no external geometry
//! dependencies) and provides exactly the primitives the paper's Section 3
//! functions and Section 4 procedures need:
//!
//! * [`Point`] / [`Vec2`] — points and vectors in the plane with the usual
//!   arithmetic, rotation and projection helpers;
//! * [`Segment`] and [`Line`] — straight segments and infinite lines, with
//!   distance, intersection and side-of queries;
//! * [`Circle`] — circles (of which the robots' unit discs are the special
//!   case of radius [`UNIT_RADIUS`]), with tangency and intersection tests;
//! * [`hull`] — convex hulls (Andrew's monotone chain, equivalent to the
//!   Graham scan the paper cites), hull membership, neighbours on the hull,
//!   area/perimeter and point-in-convex-polygon queries;
//! * [`visibility`] — visibility between unit discs when other unit discs act
//!   as opaque obstacles, as defined in Section 2 of the paper;
//! * [`grid`] — a uniform spatial grid over point sites with conservative
//!   capsule (corridor) queries, the index behind the simulator's
//!   cached world state;
//! * [`predicates`] — the ε-tolerant orientation/collinearity predicates that
//!   every other module builds on;
//! * [`kernel`] — the predicate [`Kernel`] abstraction: the default
//!   ε-tolerant [`EpsKernel`] (bit-identical to calling [`predicates`]
//!   directly) and the adaptive exact-arithmetic [`ExactKernel`], plus the
//!   disagreement-tallying shadow kernel behind the simulator's shadow
//!   oracle.
//!
//! ## Numerical model
//!
//! The paper reasons over exact real arithmetic. This crate uses `f64` with a
//! single global comparison tolerance [`predicates::EPS`] (documented per
//! function). The gathering algorithm itself never relies on exact equality:
//! the paper's own constructions are tolerance bands (`1/n` collinearity band,
//! `1/2n` gaps, `1/2n − ε` steps), which dominate the floating-point error by
//! many orders of magnitude for any practical `n`.
//!
//! ## Quick example
//!
//! ```
//! use fatrobots_geometry::{Point, hull::convex_hull};
//!
//! let pts = vec![
//!     Point::new(0.0, 0.0),
//!     Point::new(4.0, 0.0),
//!     Point::new(4.0, 3.0),
//!     Point::new(2.0, 1.0), // interior
//! ];
//! let h = convex_hull(&pts);
//! assert_eq!(h.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod circle;
pub mod grid;
pub mod hull;
pub mod kernel;
pub mod line;
pub mod point;
pub mod predicates;
pub mod segment;
pub mod visibility;

pub use circle::{Circle, UNIT_RADIUS};
pub use grid::UniformGrid;
pub use hull::ConvexHull;
pub use kernel::{EpsKernel, ExactKernel, Kernel};
pub use line::Line;
pub use point::{Point, Vec2};
pub use predicates::{approx_eq, orientation, Orientation, EPS};
pub use segment::Segment;
