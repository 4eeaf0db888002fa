//! Trace substrate for SWORD: what the dynamic phase writes and the offline
//! phase reads.
//!
//! Per §III-A of the paper, each thread maintains two files:
//!
//! * a **log file** — compressed frames of binary-encoded events (memory
//!   accesses and mutex operations), written whenever the thread's bounded
//!   buffer fills;
//! * a **meta-data file** — one record per *barrier interval* (Table I):
//!   parallel-region id, parent region id, barrier id, the thread's
//!   offset-span pair, nesting level, and the byte range of the interval's
//!   events within the (uncompressed) log stream.
//!
//! A session directory additionally holds a **region table** mapping each
//! parallel region to its parent and to the forking thread's offset-span
//! label (so full labels can be reconstructed by chaining), and a
//! **program-counter table** mapping interned PC ids back to `file:line`
//! for race reports.

#![forbid(unsafe_code)]

pub mod encode;
pub mod event;
pub mod log;
pub mod meta;
pub mod pc;
pub mod poll;
pub mod session;
pub mod source;

pub use encode::CodecError;
pub use encode::{EventDecoder, EventEncoder};
pub use event::{AccessKind, Event, MemAccess, MutexId, PcId, RegionId, ThreadId};
pub use log::{LogReader, LogWriter};
pub use meta::{read_meta, read_regions, write_meta, write_regions, MetaParseError};
pub use meta::{MetaRecord, RegionRecord};
pub use pc::{PcTable, SourceLoc};
pub use poll::{SessionDelta, SessionPoller};
pub use session::{LiveStatus, SessionDir};
pub use source::{ImageCache, LogSource, MappedLog, SourceStats};
