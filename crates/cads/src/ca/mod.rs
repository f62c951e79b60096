//! Conditional-Access data structures: immediate reclamation, no SMR
//! scheme, no per-thread reclamation state.

pub mod extbst;
pub mod fallback_list;
pub mod harrislist;
pub mod lazylist;
pub mod queue;
pub mod stack;

pub use extbst::CaExtBst;
pub use fallback_list::FbCaLazyList;
pub use harrislist::CaHarrisList;
pub use lazylist::CaLazyList;
pub use queue::CaQueue;
pub use stack::CaStack;
