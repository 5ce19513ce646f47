//! Data distributions: the Triangle Block Distribution of the symmetric
//! output (§5.2.1) and the conformal distribution of the input.

mod affine;
mod chunks;
mod gf;
mod triangle;

pub use affine::affine_plane_lines;
pub use chunks::ConformalADist;
pub(crate) use gf::field_exists;
pub use gf::Gf;
pub use triangle::TriangleBlockDist;
