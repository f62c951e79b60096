//! # cads — the benchmarked concurrent data structures
//!
//! Every structure in the paper's evaluation (§V), each in two flavours:
//!
//! | structure | CA variant (immediate free) | SMR variant (retire) |
//! |---|---|---|
//! | Treiber stack | [`ca::CaStack`] (Algorithm 1) | [`smr::SmrStack`] |
//! | MS queue | [`ca::CaQueue`] | [`smr::SmrQueue`] |
//! | lazy list | [`ca::CaLazyList`] (Algorithm 3) | [`smr::SmrLazyList`] |
//! | external BST | [`ca::CaExtBst`] | [`smr::SmrExtBst`] |
//! | 128-bucket hash table | [`HashTable`]`<CaLazyList>` | [`HashTable`]`<SmrLazyList<&S>>` |
//!
//! Plus the extension structures:
//!
//! * [`ca::CaHarrisList`] — a **lock-free** CA list (the paper's
//!   future-work question, answered for the Harris list);
//! * [`ca::FbCaLazyList`] — the lazy list wrapped in the §IV fallback path
//!   (guaranteed progress on any cache geometry);
//! * [`htm::HtmLazyList`] — the §VI comparator: hand-over-hand hardware
//!   transactions with a metadata version table (Zhou et al.).
//!
//! All nodes are one 64-byte cache line ([`layout`]); the harness drives
//! everything through the [`traits`] interfaces.

pub mod ca;
pub mod hashtable;
pub mod htm;
pub mod layout;
pub mod seqcheck;
pub mod smr;
pub mod traits;

pub use hashtable::HashTable;
pub use traits::{DsShared, Op, QueueDs, SetDs, StackDs};
