//! Trace import/export, so the analysis pipeline also serves traces
//! captured outside this workspace (a real oscilloscope, another
//! simulator).
//!
//! Two formats:
//!
//! * **CSV** — one trace per row, optional class label in the first
//!   column (`fixed`/`random` or `0`/`1`); human-inspectable.
//! * **GMT binary** — a minimal length-prefixed little-endian format
//!   (`GMT1` magic, u32 trace length, then per trace: u8 class +
//!   f64 samples); compact enough for multi-million-trace archives.

use crate::tvla::Class;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// A set of labelled traces in memory.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSet {
    /// Trace length (all traces equal).
    pub num_samples: usize,
    /// Per-trace class labels.
    pub classes: Vec<Class>,
    /// Row-major samples, `traces.len() == classes.len() * num_samples`.
    pub samples: Vec<f64>,
}

impl TraceSet {
    /// An empty set for traces of `num_samples` points.
    pub fn new(num_samples: usize) -> Self {
        TraceSet { num_samples, classes: Vec::new(), samples: Vec::new() }
    }

    /// Number of traces.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// True when no traces are stored.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Append one trace.
    ///
    /// # Panics
    ///
    /// Panics on a length mismatch.
    pub fn push(&mut self, class: Class, trace: &[f64]) {
        assert_eq!(trace.len(), self.num_samples, "trace length mismatch");
        self.classes.push(class);
        self.samples.extend_from_slice(trace);
    }

    /// Borrow trace `i`.
    pub fn trace(&self, i: usize) -> (&Class, &[f64]) {
        (&self.classes[i], &self.samples[i * self.num_samples..(i + 1) * self.num_samples])
    }

    /// Feed every trace into a [`crate::TvlaResult`].
    pub fn accumulate(&self) -> crate::TvlaResult {
        let mut r = crate::TvlaResult::new(self.num_samples);
        for i in 0..self.len() {
            let (class, t) = self.trace(i);
            match class {
                Class::Fixed => r.fixed.add(t),
                Class::Random => r.random.add(t),
            }
        }
        r
    }

    // ---- CSV ------------------------------------------------------------

    /// Write as CSV: `class,sample0,sample1,…`.
    pub fn write_csv<W: Write>(&self, w: W) -> io::Result<()> {
        let mut w = BufWriter::new(w);
        for i in 0..self.len() {
            let (class, t) = self.trace(i);
            let label = match class {
                Class::Fixed => "fixed",
                Class::Random => "random",
            };
            write!(w, "{label}")?;
            for s in t {
                write!(w, ",{s}")?;
            }
            writeln!(w)?;
        }
        w.flush()
    }

    /// Parse CSV written by [`TraceSet::write_csv`] (labels may also be
    /// `0`/`1`). Returns `InvalidData` on ragged rows or bad labels.
    pub fn read_csv<R: Read>(r: R) -> io::Result<Self> {
        let mut set: Option<TraceSet> = None;
        for line in BufReader::new(r).lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let mut parts = line.split(',');
            let label = parts.next().unwrap_or_default().trim();
            let class = match label {
                "fixed" | "0" => Class::Fixed,
                "random" | "1" => Class::Random,
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("bad class label {other:?}"),
                    ))
                }
            };
            let samples: Result<Vec<f64>, _> = parts.map(|p| p.trim().parse::<f64>()).collect();
            let samples = samples.map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            let set = set.get_or_insert_with(|| TraceSet::new(samples.len()));
            if samples.len() != set.num_samples {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "ragged row"));
            }
            set.push(class, &samples);
        }
        Ok(set.unwrap_or_default())
    }

    // ---- binary ----------------------------------------------------------

    /// Write the compact `GMT1` binary format.
    pub fn write_binary<W: Write>(&self, w: W) -> io::Result<()> {
        let mut w = BufWriter::new(w);
        w.write_all(b"GMT1")?;
        w.write_all(&(self.num_samples as u32).to_le_bytes())?;
        for i in 0..self.len() {
            let (class, t) = self.trace(i);
            w.write_all(&[matches!(class, Class::Random) as u8])?;
            for s in t {
                w.write_all(&s.to_le_bytes())?;
            }
        }
        w.flush()
    }

    /// Read the `GMT1` binary format. Returns `InvalidData` on a bad
    /// magic, a class byte other than 0/1, or a file that ends inside a
    /// record. Memory grows with the record bytes actually read, never
    /// with the trace length the header claims.
    pub fn read_binary<R: Read>(r: R) -> io::Result<Self> {
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let mut r = BufReader::new(r);
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != b"GMT1" {
            return Err(invalid("bad magic".to_owned()));
        }
        let mut len = [0u8; 4];
        r.read_exact(&mut len)?;
        let num_samples = u32::from_le_bytes(len) as usize;
        let sample_bytes = 8 * num_samples as u64;
        let mut set = TraceSet::new(num_samples);
        let mut buf = Vec::new();
        loop {
            let class = match r.fill_buf()?.first() {
                None => break,
                Some(0) => Class::Fixed,
                Some(1) => Class::Random,
                Some(b) => return Err(invalid(format!("trace {}: bad class byte {b}", set.len()))),
            };
            r.consume(1);
            buf.clear();
            if (&mut r).take(sample_bytes).read_to_end(&mut buf)? as u64 != sample_bytes {
                return Err(invalid(format!(
                    "trace {}: record torn after {} of {sample_bytes} sample bytes",
                    set.len(),
                    buf.len()
                )));
            }
            set.classes.push(class);
            set.samples.extend(
                buf.chunks_exact(8)
                    .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunks"))),
            );
        }
        Ok(set)
    }

    /// Convenience: save to a path, format chosen by extension
    /// (`.csv` vs anything else = binary).
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let f = std::fs::File::create(path)?;
        if path.extension().is_some_and(|e| e == "csv") {
            self.write_csv(f)
        } else {
            self.write_binary(f)
        }
    }

    /// Convenience: load from a path, format by extension.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref();
        let f = std::fs::File::open(path)?;
        if path.extension().is_some_and(|e| e == "csv") {
            Self::read_csv(f)
        } else {
            Self::read_binary(f)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_set() -> TraceSet {
        let mut s = TraceSet::new(3);
        s.push(Class::Fixed, &[1.0, 2.5, -3.0]);
        s.push(Class::Random, &[0.0, 1e-9, 4.25]);
        s.push(Class::Fixed, &[9.0, -2.0, 0.5]);
        s
    }

    #[test]
    fn csv_roundtrip() {
        let s = sample_set();
        let mut buf = Vec::new();
        s.write_csv(&mut buf).unwrap();
        let back = TraceSet::read_csv(&buf[..]).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn binary_roundtrip() {
        let s = sample_set();
        let mut buf = Vec::new();
        s.write_binary(&mut buf).unwrap();
        let back = TraceSet::read_binary(&buf[..]).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn csv_numeric_labels_accepted() {
        let text = "0,1.0,2.0\n1,3.0,4.0\n";
        let s = TraceSet::read_csv(text.as_bytes()).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.classes, vec![Class::Fixed, Class::Random]);
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(TraceSet::read_csv("weird,1.0\n".as_bytes()).is_err());
        assert!(TraceSet::read_csv("fixed,1.0\nrandom,1.0,2.0\n".as_bytes()).is_err());
        assert!(TraceSet::read_binary(&b"NOPE"[..]).is_err());

        let invalid = |bytes: &[u8]| {
            TraceSet::read_binary(bytes).expect_err("must be rejected").kind()
                == io::ErrorKind::InvalidData
        };
        let mut file = Vec::new();
        sample_set().write_binary(&mut file).unwrap();
        assert_eq!(file.len(), 83);
        // A torn final record is an error, not a shorter set.
        assert!(invalid(&file[..78]));
        // Only 0 (fixed) and 1 (random) are class bytes.
        let mut bad_class = file.clone();
        bad_class[8] = 7;
        assert!(invalid(&bad_class));
        // A header claiming 2^31 - 1 samples per trace, then a partial
        // record: rejected without a 16 GiB record buffer.
        assert!(invalid(b"GMT1\xff\xff\xff\x7f\x00\x01\x02"));
        // The bare header is a valid empty set (what `write_binary`
        // writes for `TraceSet::new(0x7fff_ffff)`), read without one.
        let empty = TraceSet::read_binary(&b"GMT1\xff\xff\xff\x7f"[..]).unwrap();
        assert_eq!((empty.len(), empty.num_samples), (0, 0x7fff_ffff));
    }

    /// A file cut on a record boundary reads back exactly the whole
    /// records before the cut; a cut anywhere else is an error.
    #[test]
    fn binary_cut_at_every_offset() {
        let s = sample_set();
        let mut file = Vec::new();
        s.write_binary(&mut file).unwrap();
        let record = 1 + 8 * s.num_samples;
        for cut in 0..=file.len() {
            let read = TraceSet::read_binary(&file[..cut]);
            if cut >= 8 && (cut - 8) % record == 0 {
                let whole = (cut - 8) / record;
                let mut prefix = TraceSet::new(s.num_samples);
                (0..whole).for_each(|i| prefix.push(*s.trace(i).0, s.trace(i).1));
                assert_eq!(read.unwrap(), prefix, "cut at {cut}");
            } else {
                assert!(read.is_err(), "cut at {cut} must be an error");
            }
        }
    }

    #[test]
    fn accumulate_feeds_tvla() {
        let mut s = TraceSet::new(1);
        for i in 0..2_000 {
            let class = if i % 2 == 0 { Class::Fixed } else { Class::Random };
            let v = f64::from(i % 7) + if class == Class::Fixed { 3.0 } else { 0.0 };
            s.push(class, &[v]);
        }
        let r = s.accumulate();
        assert_eq!(r.total_traces(), 2_000);
        assert!(r.max_abs_t1() > 4.5, "mean shift must flag");
    }

    #[test]
    fn save_load_by_extension() {
        let dir = std::env::temp_dir().join("gm_trace_io_test");
        let s = sample_set();
        for name in ["t.csv", "t.gmt"] {
            let path = dir.join(name);
            s.save(&path).unwrap();
            assert_eq!(TraceSet::load(&path).unwrap(), s);
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}
