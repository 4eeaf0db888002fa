//! Program-counter interning.
//!
//! The paper's instrumentation records a program counter per access and its
//! race reports point at source lines. Our instrumentation substitute
//! interns `file:line` source locations to dense u32 ids; the table is
//! persisted in the session directory so the offline analyzer can map ids
//! in race reports back to locations.

use std::collections::HashMap;
use std::fmt;
use std::io::{self, BufRead, Write};

use crate::event::PcId;

/// A `file:line` source location.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SourceLoc {
    /// Source file path.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
}

impl SourceLoc {
    /// Convenience constructor.
    pub fn new(file: impl Into<String>, line: u32) -> Self {
        SourceLoc { file: file.into(), line }
    }
}

impl fmt::Display for SourceLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.file, self.line)
    }
}

/// Bidirectional map between [`SourceLoc`]s and dense [`PcId`]s.
#[derive(Clone, Debug, Default)]
pub struct PcTable {
    locs: Vec<SourceLoc>,
    /// `file → line → id`. Two levels so a lookup borrows the caller's
    /// `&str`: a hit allocates nothing.
    ids: HashMap<String, HashMap<u32, PcId>>,
}

impl PcTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of interned locations.
    pub fn len(&self) -> usize {
        self.locs.len()
    }

    /// `true` when nothing is interned.
    pub fn is_empty(&self) -> bool {
        self.locs.is_empty()
    }

    /// Interns a location, returning its stable id.
    pub fn intern(&mut self, file: &str, line: u32) -> PcId {
        if let Some(&id) = self.ids.get(file).and_then(|lines| lines.get(&line)) {
            return id;
        }
        let id = self.locs.len() as PcId;
        self.locs.push(SourceLoc::new(file, line));
        self.ids.entry(file.to_string()).or_default().insert(line, id);
        id
    }

    /// Resolves an id back to its location.
    pub fn resolve(&self, id: PcId) -> Option<&SourceLoc> {
        self.locs.get(id as usize)
    }

    /// Human-readable form of an id; never fails (unknown ids are shown as
    /// `pc#N`).
    pub fn display(&self, id: PcId) -> String {
        match self.resolve(id) {
            Some(loc) => loc.to_string(),
            None => format!("pc#{id}"),
        }
    }

    /// Serializes the table (`id \t line \t file`).
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        for (id, loc) in self.locs.iter().enumerate() {
            writeln!(w, "{}\t{}\t{}", id, loc.line, loc.file)?;
        }
        Ok(())
    }

    /// Reads a table written by [`PcTable::write_to`]. Ids must be dense
    /// and in order.
    pub fn read_from<R: BufRead>(r: R) -> io::Result<Self> {
        let mut table = PcTable::new();
        for line in r.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let mut it = line.splitn(3, '\t');
            let bad = || io::Error::new(io::ErrorKind::InvalidData, "bad pc table line");
            let id: usize = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
            let line_no: u32 = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
            let file = it.next().ok_or_else(bad)?;
            if id != table.locs.len() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("pc table ids not dense at {id}"),
                ));
            }
            table.intern(file, line_no);
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = PcTable::new();
        let a = t.intern("foo.rs", 10);
        let b = t.intern("foo.rs", 10);
        let c = t.intern("foo.rs", 11);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn ids_follow_first_sight_across_interleaved_files() {
        // The `pcs` file is the id order; the per-file index must not
        // regroup it.
        let mut t = PcTable::new();
        let seen = [("b.rs", 7), ("a.rs", 7), ("b.rs", 3), ("a.rs", 7), ("b.rs", 7), ("a.rs", 1)];
        let ids: Vec<PcId> = seen.iter().map(|(f, l)| t.intern(f, *l)).collect();
        assert_eq!(ids, vec![0, 1, 2, 1, 0, 3]);
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            "0\t7\tb.rs\n1\t7\ta.rs\n2\t3\tb.rs\n3\t1\ta.rs\n"
        );
    }

    #[test]
    fn resolve_and_display() {
        let mut t = PcTable::new();
        let id = t.intern("src/kernel.rs", 42);
        assert_eq!(t.resolve(id).unwrap().to_string(), "src/kernel.rs:42");
        assert_eq!(t.display(id), "src/kernel.rs:42");
        assert_eq!(t.display(999), "pc#999");
    }

    #[test]
    fn serialization_roundtrip() {
        let mut t = PcTable::new();
        t.intern("a.rs", 1);
        t.intern("b/with tab-free path.rs", 200);
        t.intern("a.rs", 3);
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let t2 = PcTable::read_from(&buf[..]).unwrap();
        assert_eq!(t2.len(), 3);
        for id in 0..3 {
            assert_eq!(t.resolve(id), t2.resolve(id));
        }
    }

    #[test]
    fn read_rejects_non_dense() {
        let text = "1\t10\tfoo.rs\n";
        assert!(PcTable::read_from(text.as_bytes()).is_err());
    }

    #[test]
    fn empty_table() {
        let t = PcTable::new();
        assert!(t.is_empty());
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        assert!(PcTable::read_from(&buf[..]).unwrap().is_empty());
    }
}
