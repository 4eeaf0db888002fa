//! Meta-data records: the per-thread barrier-interval table (Table I of the
//! paper) and the session-wide region table used to reconstruct full
//! offset-span labels.
//!
//! Both files are line-oriented text, mirroring Table I's tabular
//! presentation, which keeps them inspectable with standard tools (and via
//! `sword meta` in the CLI). Numeric volume is tiny compared to the logs —
//! one line per barrier interval / region — so a binary format would buy
//! nothing.

use std::io::{self, BufRead, Write};

use sword_osl::Label;

/// One line of a thread's meta-data file — one **barrier interval**
/// (Table I: `pid  ppid  bid  offset  span  level  data_begin  size`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetaRecord {
    /// Parallel region id.
    pub pid: u64,
    /// Parent parallel region id (`None` for top-level regions, printed
    /// as `-` like Table I).
    pub ppid: Option<u64>,
    /// Barrier-interval id within the region: 0 before the first barrier,
    /// incremented at every barrier the thread crosses.
    pub bid: u32,
    /// Offset of this thread's innermost offset-span pair **including
    /// barrier-generation bumps** (`slot + bid·span`).
    pub offset: u64,
    /// Span (team size) of the region.
    pub span: u64,
    /// Nesting level of parallelism (1 for top-level regions).
    pub level: u32,
    /// Byte offset of this interval's events in the *uncompressed* log
    /// stream.
    pub data_begin: u64,
    /// Byte length of this interval's events.
    pub size: u64,
}

impl MetaRecord {
    /// The thread's innermost offset-span pair for this interval.
    pub fn pair(&self) -> (u64, u64) {
        (self.offset, self.span)
    }

    /// Serializes to one Table-I-style line.
    pub fn to_line(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            self.pid,
            self.ppid.map_or_else(|| "-".to_string(), |p| p.to_string()),
            self.bid,
            self.offset,
            self.span,
            self.level,
            self.data_begin,
            self.size
        )
    }

    /// Parses a line produced by [`MetaRecord::to_line`].
    pub fn parse_line(line: &str) -> Result<Self, MetaParseError> {
        let mut it = line.split('\t');
        let mut field = |name: &'static str| {
            it.next().filter(|s| !s.is_empty()).ok_or(MetaParseError::MissingField(name))
        };
        let pid = parse_num(field("pid")?, "pid")?;
        let ppid_raw = field("ppid")?;
        let ppid = if ppid_raw == "-" { None } else { Some(parse_num(ppid_raw, "ppid")?) };
        let bid = parse_num(field("bid")?, "bid")?;
        let offset = parse_num(field("offset")?, "offset")?;
        let span = parse_num(field("span")?, "span")?;
        let level = parse_num(field("level")?, "level")?;
        let data_begin: u64 = parse_num(field("data_begin")?, "data_begin")?;
        let size = parse_num(field("size")?, "size")?;
        if span == 0 {
            return Err(MetaParseError::BadField("span"));
        }
        // The interval's end must be addressable: a range past u64::MAX
        // would wrap every offset computed from it.
        if data_begin.checked_add(size).is_none() {
            return Err(MetaParseError::BadField("size"));
        }
        Ok(MetaRecord { pid, ppid, bid, offset, span, level, data_begin, size })
    }
}

/// One line of the session-wide region table: a parallel region instance
/// and the forking thread's full offset-span label at the fork point, so
/// the analyzer can reconstruct any thread's label as
/// `fork_label · [offset, span]` from its meta rows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionRecord {
    /// Region id.
    pub pid: u64,
    /// Parent region id (`None` for top level).
    pub ppid: Option<u64>,
    /// Nesting level (1 = top level).
    pub level: u32,
    /// Team size.
    pub span: u64,
    /// The forking thread's label at the fork point, flattened
    /// (offset, span, offset, span, …).
    pub fork_label: Vec<u64>,
    /// For task pseudo-regions (`span == sword_osl::TASK_SPAN`): pids of
    /// predecessor task pseudo-regions this task `depend`s on. Dependences
    /// are fully known at creation time — predecessors are earlier sibling
    /// tasks with a conflicting `depend` clause — so the record is complete
    /// when first written. Empty for real parallel regions, and omitted
    /// from the serialized line so pre-tasking region tables round-trip
    /// byte-identically.
    pub deps: Vec<u64>,
}

impl RegionRecord {
    /// The forking thread's label as an [`sword_osl::Label`].
    ///
    /// Infallible because [`RegionRecord::parse_line`] rejects flat labels
    /// `from_flat` would reject (odd length, zero spans) — corrupted
    /// region tables surface as parse errors, never here.
    pub fn fork_label(&self) -> Label {
        Label::from_flat(&self.fork_label).expect("region record holds a valid label")
    }

    /// Serializes to one line: `pid ppid level span o,s,o,s,…` with a
    /// trailing `dep,dep,…` column only when dependences are present.
    pub fn to_line(&self) -> String {
        let label: Vec<String> = self.fork_label.iter().map(|v| v.to_string()).collect();
        let mut line = format!(
            "{}\t{}\t{}\t{}\t{}",
            self.pid,
            self.ppid.map_or_else(|| "-".to_string(), |p| p.to_string()),
            self.level,
            self.span,
            label.join(",")
        );
        if !self.deps.is_empty() {
            let deps: Vec<String> = self.deps.iter().map(|v| v.to_string()).collect();
            line.push('\t');
            line.push_str(&deps.join(","));
        }
        line
    }

    /// Parses a line produced by [`RegionRecord::to_line`].
    pub fn parse_line(line: &str) -> Result<Self, MetaParseError> {
        let mut it = line.split('\t');
        let mut field = |name: &'static str| {
            it.next().filter(|s| !s.is_empty()).ok_or(MetaParseError::MissingField(name))
        };
        let pid = parse_num(field("pid")?, "pid")?;
        let ppid_raw = field("ppid")?;
        let ppid = if ppid_raw == "-" { None } else { Some(parse_num(ppid_raw, "ppid")?) };
        let level = parse_num(field("level")?, "level")?;
        let span = parse_num(field("span")?, "span")?;
        let label_raw = it.next().unwrap_or("");
        let mut fork_label = Vec::new();
        if !label_raw.is_empty() {
            for part in label_raw.split(',') {
                fork_label.push(parse_num(part, "fork_label")?);
            }
        }
        if fork_label.len() % 2 != 0 {
            return Err(MetaParseError::BadField("fork_label"));
        }
        // A zero span inside the label would make `fork_label()` panic
        // later; corrupted tables must fail here, at the I/O boundary.
        if fork_label.chunks_exact(2).any(|pair| pair[1] == 0) {
            return Err(MetaParseError::BadField("fork_label"));
        }
        if span == 0 {
            return Err(MetaParseError::BadField("span"));
        }
        let mut deps = Vec::new();
        if let Some(deps_raw) = it.next() {
            if !deps_raw.is_empty() {
                for part in deps_raw.split(',') {
                    deps.push(parse_num(part, "deps")?);
                }
            }
        }
        Ok(RegionRecord { pid, ppid, level, span, fork_label, deps })
    }
}

/// Error parsing a meta-data line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetaParseError {
    /// A column was absent.
    MissingField(&'static str),
    /// A column failed to parse or had an invalid value.
    BadField(&'static str),
}

impl std::fmt::Display for MetaParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetaParseError::MissingField(n) => write!(f, "missing meta field `{n}`"),
            MetaParseError::BadField(n) => write!(f, "invalid meta field `{n}`"),
        }
    }
}

impl std::error::Error for MetaParseError {}

/// Parses one numeric field. A value out of `T`'s range is a bad field,
/// never truncated: a `bid` of 2³² + k read as `k` would file its row into
/// another barrier interval's group.
fn parse_num<T: std::str::FromStr>(s: &str, name: &'static str) -> Result<T, MetaParseError> {
    s.parse().map_err(|_| MetaParseError::BadField(name))
}

/// Writes meta records line by line.
pub fn write_meta<W: Write>(w: &mut W, records: &[MetaRecord]) -> io::Result<()> {
    for r in records {
        writeln!(w, "{}", r.to_line())?;
    }
    Ok(())
}

/// Reads all meta records from a reader. A bad row is an `InvalidData`
/// error naming its 1-based line number, blank lines included.
pub fn read_meta<R: BufRead>(r: R) -> io::Result<Vec<MetaRecord>> {
    let mut out = Vec::new();
    for (i, line) in r.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        out.push(MetaRecord::parse_line(&line).map_err(|e| line_error(e, i + 1))?);
    }
    Ok(out)
}

fn line_error(e: MetaParseError, line: usize) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("{e} on line {line}"))
}

/// Writes region records line by line.
pub fn write_regions<W: Write>(w: &mut W, records: &[RegionRecord]) -> io::Result<()> {
    for r in records {
        writeln!(w, "{}", r.to_line())?;
    }
    Ok(())
}

/// Reads all region records from a reader; a bad row errors like
/// [`read_meta`]'s.
pub fn read_regions<R: BufRead>(r: R) -> io::Result<Vec<RegionRecord>> {
    let mut out = Vec::new();
    for (i, line) in r.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        out.push(RegionRecord::parse_line(&line).map_err(|e| line_error(e, i + 1))?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetaRecord {
        MetaRecord {
            pid: 3,
            ppid: Some(1),
            bid: 2,
            offset: 5,
            span: 4,
            level: 2,
            data_begin: 50_000,
            size: 75_000,
        }
    }

    #[test]
    fn meta_line_roundtrip() {
        let r = sample();
        assert_eq!(MetaRecord::parse_line(&r.to_line()).unwrap(), r);
    }

    #[test]
    fn meta_top_level_ppid_dash() {
        let r = MetaRecord { ppid: None, ..sample() };
        let line = r.to_line();
        assert!(line.contains("\t-\t"));
        assert_eq!(MetaRecord::parse_line(&line).unwrap(), r);
    }

    #[test]
    fn meta_table1_example() {
        // First row of Table I: pid 0, ppid -, bid 0, offset 0, span 24,
        // level 1, data_begin 0, size 50000.
        let line = "0\t-\t0\t0\t24\t1\t0\t50000";
        let r = MetaRecord::parse_line(line).unwrap();
        assert_eq!(r.pid, 0);
        assert_eq!(r.ppid, None);
        assert_eq!(r.span, 24);
        assert_eq!(r.size, 50_000);
        assert_eq!(r.pair(), (0, 24));
    }

    #[test]
    fn meta_rejects_garbage() {
        assert!(MetaRecord::parse_line("").is_err());
        assert!(MetaRecord::parse_line("1\t2\t3").is_err());
        assert!(MetaRecord::parse_line("x\t-\t0\t0\t4\t1\t0\t0").is_err());
        // zero span invalid
        assert!(MetaRecord::parse_line("0\t-\t0\t0\t0\t1\t0\t0").is_err());
    }

    #[test]
    fn meta_rejects_a_bid_or_level_past_u32() {
        let row = |bid: u64, level: u64| format!("0\t-\t{bid}\t0\t2\t{level}\t0\t8");
        let max = u64::from(u32::MAX);
        assert_eq!(MetaRecord::parse_line(&row(max, 1)).unwrap().bid, u32::MAX);
        assert_eq!(MetaRecord::parse_line(&row(max + 1, 1)), Err(MetaParseError::BadField("bid")));
        let level = MetaRecord::parse_line(&row(0, max + 3));
        assert_eq!(level, Err(MetaParseError::BadField("level")));
        let region = format!("0\t-\t{}\t2\t0,1", max + 1);
        assert_eq!(RegionRecord::parse_line(&region), Err(MetaParseError::BadField("level")));
    }

    #[test]
    fn meta_rejects_a_range_that_wraps_u64() {
        // data_begin + size = u64::MAX still addresses; one more wraps.
        let last = format!("0\t-\t0\t0\t2\t1\t{}\t5", u64::MAX - 5);
        assert_eq!(MetaRecord::parse_line(&last).unwrap().size, 5);
        let wraps = format!("0\t-\t0\t0\t2\t1\t{}\t20", u64::MAX - 5);
        assert_eq!(MetaRecord::parse_line(&wraps), Err(MetaParseError::BadField("size")));
        let file = format!("0\t-\t0\t0\t2\t1\t0\t10\n\n{wraps}\n");
        let err = read_meta(file.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "invalid meta field `size` on line 3");
    }

    #[test]
    fn region_line_roundtrip() {
        let r = RegionRecord {
            pid: 7,
            ppid: Some(2),
            level: 2,
            span: 8,
            fork_label: vec![0, 1, 3, 4],
            deps: vec![],
        };
        assert_eq!(RegionRecord::parse_line(&r.to_line()).unwrap(), r);
        assert_eq!(r.fork_label().pairs().len(), 2);
    }

    #[test]
    fn region_empty_label() {
        let r = RegionRecord {
            pid: 0,
            ppid: None,
            level: 1,
            span: 4,
            fork_label: vec![],
            deps: vec![],
        };
        let parsed = RegionRecord::parse_line(&r.to_line()).unwrap();
        assert_eq!(parsed, r);
        assert!(parsed.fork_label().is_empty());
    }

    #[test]
    fn region_deps_roundtrip_and_v1_compat() {
        let r = RegionRecord {
            pid: 9,
            ppid: Some(3),
            level: 2,
            span: 1 << 32,
            fork_label: vec![0, 1, 5, 1],
            deps: vec![7, 8],
        };
        let line = r.to_line();
        assert!(line.ends_with("\t7,8"), "{line}");
        assert_eq!(RegionRecord::parse_line(&line).unwrap(), r);
        // Pre-tasking 5-column lines parse with no dependences, and a
        // dep-free record serializes without the column.
        let v1 = "0\t-\t1\t4\t0,1";
        let parsed = RegionRecord::parse_line(v1).unwrap();
        assert!(parsed.deps.is_empty());
        assert_eq!(parsed.to_line(), v1);
        assert!(RegionRecord::parse_line("0\t-\t1\t4\t0,1\t7,x").is_err());
    }

    #[test]
    fn region_rejects_odd_label() {
        assert!(RegionRecord::parse_line("0\t-\t1\t4\t1,2,3").is_err());
    }

    #[test]
    fn region_rejects_zero_span_in_label() {
        // Would otherwise panic later in `fork_label()`.
        assert!(RegionRecord::parse_line("0\t-\t1\t4\t1,0").is_err());
        assert!(RegionRecord::parse_line("0\t-\t1\t4\t0,1,2,0").is_err());
    }

    #[test]
    fn file_roundtrip() {
        let records = vec![
            MetaRecord {
                pid: 0,
                ppid: None,
                bid: 0,
                offset: 0,
                span: 24,
                level: 1,
                data_begin: 0,
                size: 50_000,
            },
            MetaRecord {
                pid: 0,
                ppid: None,
                bid: 1,
                offset: 24,
                span: 24,
                level: 1,
                data_begin: 50_000,
                size: 75_000,
            },
            MetaRecord {
                pid: 1,
                ppid: None,
                bid: 0,
                offset: 0,
                span: 24,
                level: 1,
                data_begin: 125_000,
                size: 10_000,
            },
        ];
        let mut buf = Vec::new();
        write_meta(&mut buf, &records).unwrap();
        let got = read_meta(&buf[..]).unwrap();
        assert_eq!(got, records);
    }

    #[test]
    fn regions_file_roundtrip() {
        let records = vec![
            RegionRecord {
                pid: 0,
                ppid: None,
                level: 1,
                span: 2,
                fork_label: vec![0, 1],
                deps: vec![],
            },
            RegionRecord {
                pid: 1,
                ppid: Some(0),
                level: 2,
                span: 2,
                fork_label: vec![0, 1, 0, 2],
                deps: vec![],
            },
        ];
        let mut buf = Vec::new();
        write_regions(&mut buf, &records).unwrap();
        assert_eq!(read_regions(&buf[..]).unwrap(), records);
    }

    #[test]
    fn blank_lines_skipped() {
        let text = "\n0\t-\t0\t0\t4\t1\t0\t10\n\n";
        assert_eq!(read_meta(text.as_bytes()).unwrap().len(), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_meta() -> impl Strategy<Value = MetaRecord> {
        (
            any::<u64>(),
            prop::option::of(any::<u64>()),
            any::<u32>(),
            any::<u64>(),
            1u64..u64::MAX,
            any::<u32>(),
            any::<u64>(),
            any::<u64>(),
        )
            .prop_map(|(pid, ppid, bid, offset, span, level, data_begin, size)| {
                // Valid rows address their end: data_begin + size fits u64.
                let size = size.min(u64::MAX - data_begin);
                MetaRecord { pid, ppid, bid, offset, span, level, data_begin, size }
            })
    }

    fn arb_region() -> impl Strategy<Value = RegionRecord> {
        (
            any::<u64>(),
            prop::option::of(any::<u64>()),
            any::<u32>(),
            1u64..u64::MAX,
            prop::collection::vec(any::<u64>(), 0..6),
            prop::collection::vec(any::<u64>(), 0..4),
        )
            .prop_map(|(pid, ppid, level, span, mut fork_label, deps)| {
                if fork_label.len() % 2 != 0 {
                    fork_label.pop();
                }
                // Spans within the label must be non-zero for
                // `fork_label()` reconstruction.
                for pair in fork_label.chunks_exact_mut(2) {
                    pair[1] = pair[1].max(1);
                }
                RegionRecord { pid, ppid, level, span, fork_label, deps }
            })
    }

    proptest! {
        #[test]
        fn meta_line_roundtrip_prop(r in arb_meta()) {
            prop_assert_eq!(MetaRecord::parse_line(&r.to_line()).unwrap(), r);
        }

        #[test]
        fn region_line_roundtrip_prop(r in arb_region()) {
            let parsed = RegionRecord::parse_line(&r.to_line()).unwrap();
            prop_assert_eq!(parsed.fork_label(), r.fork_label());
            prop_assert_eq!(parsed, r);
        }

        #[test]
        fn meta_file_roundtrip_prop(rows in prop::collection::vec(arb_meta(), 0..20)) {
            let mut buf = Vec::new();
            write_meta(&mut buf, &rows).unwrap();
            prop_assert_eq!(read_meta(&buf[..]).unwrap(), rows);
        }

        #[test]
        fn parse_garbage_never_panics(line in "\\PC*") {
            let _ = MetaRecord::parse_line(&line);
            let _ = RegionRecord::parse_line(&line);
        }
    }
}
