//! Packet-trace recording and replay.
//!
//! Traces are the interchange format between the `mira-nuca` CMP model
//! and the network simulator: one JSON object per line, each describing
//! a packet injection with its cycle, endpoints, class, and payload
//! words. Replay is open-loop and timestamp-faithful, the standard
//! methodology for trace-driven NoC evaluation (and what the paper does
//! with its Simics-derived "MP traces").

use std::io::{BufRead, Write};

use serde::{Deserialize, Emitter, Serialize, Value};

use mira_noc::flit::{FlitData, MAX_FLIT_WORDS};
use mira_noc::ids::NodeId;
use mira_noc::packet::{PacketClass, PacketSpec};
use mira_noc::traffic::Workload;

/// One packet injection event.
///
/// Its JSON line is `{"cycle":…,"src":…,"dst":…,"class":"…","payload":[[w,…],…]}`:
/// the payload is one array of words per flit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Injection cycle.
    pub cycle: u64,
    /// Source node index.
    pub src: usize,
    /// Destination node index.
    pub dst: usize,
    /// Message class.
    pub class: PacketClass,
    /// Payload, one entry per flit.
    pub payload: Vec<FlitData>,
}

impl TraceRecord {
    /// Converts back to a packet spec.
    fn to_spec(&self) -> PacketSpec {
        PacketSpec {
            src: NodeId(self.src),
            dst: NodeId(self.dst),
            class: self.class,
            payload: self.payload.clone(),
        }
    }

    /// Packet length in flits.
    pub fn len_flits(&self) -> usize {
        self.payload.len()
    }
}

impl Serialize for TraceRecord {
    fn serialize(&self, e: &mut dyn Emitter) {
        e.begin_object();
        e.field("cycle", &self.cycle);
        e.field("src", &self.src);
        e.field("dst", &self.dst);
        e.field("class", &self.class);
        e.key("payload");
        e.begin_array();
        for flit in &self.payload {
            e.seq(flit.words());
        }
        e.end_array();
        e.end_object();
    }
}

impl Deserialize for TraceRecord {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(TraceRecord {
            cycle: Deserialize::from_field(v, "cycle")?,
            src: Deserialize::from_field(v, "src")?,
            dst: Deserialize::from_field(v, "dst")?,
            class: Deserialize::from_field(v, "class")?,
            payload: Flits::from_field(v, "payload")?.0,
        })
    }
}

/// A record's payload as read from its JSON word lists. A record must
/// have a flit and a flit 1 to [`MAX_FLIT_WORDS`] words, so a bad
/// payload is a read error rather than a panic at replay.
struct Flits(Vec<FlitData>);

impl Deserialize for Flits {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let flit = |item: &Value| {
            let words = item.as_array()?;
            if words.is_empty() || words.len() > MAX_FLIT_WORDS {
                return Err(serde::Error::msg(format!(
                    "a flit has 1..={MAX_FLIT_WORDS} words, got {}",
                    words.len()
                )));
            }
            let mut w = [0u32; MAX_FLIT_WORDS];
            for (slot, word) in w.iter_mut().zip(words) {
                *slot = u32::from_value(word)?;
            }
            Ok(FlitData::from_words(&w[..words.len()]))
        };
        let flits = v.as_array()?;
        if flits.is_empty() {
            return Err(serde::Error::msg("a record has at least one flit"));
        }
        flits.iter().map(flit).collect::<Result<_, _>>().map(Flits)
    }
}

/// Writes trace records as JSON lines.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    out: W,
    records: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Creates a writer over any `Write` sink (pass `&mut buf` for an
    /// in-memory trace).
    pub fn new(out: W) -> Self {
        TraceWriter { out, records: 0 }
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Propagates serialisation and I/O failures.
    pub fn write(&mut self, record: &TraceRecord) -> std::io::Result<()> {
        let line = serde_json::to_string(record)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        writeln!(self.out, "{line}")?;
        self.records += 1;
        Ok(())
    }

    /// Number of records written so far.
    pub fn records_written(&self) -> u64 {
        self.records
    }

    /// Flushes and returns the underlying sink.
    ///
    /// # Errors
    ///
    /// Propagates the flush failure.
    pub fn finish(mut self) -> std::io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Reads a JSON-lines trace.
///
/// # Errors
///
/// Returns an `InvalidData` error if a line fails to parse, has no
/// flits, or holds a flit of no or more than [`MAX_FLIT_WORDS`] words.
pub fn read_trace<R: BufRead>(input: R) -> std::io::Result<Vec<TraceRecord>> {
    let mut records = Vec::new();
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let rec: TraceRecord = serde_json::from_str(&line)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        records.push(rec);
    }
    Ok(records)
}

/// Open-loop trace replay: injects each record at its original cycle.
#[derive(Debug)]
pub struct TraceReplay {
    /// Records sorted by cycle.
    records: Vec<TraceRecord>,
    next: usize,
}

impl TraceReplay {
    /// Creates a replay over `records` (sorted by cycle internally).
    pub fn new(mut records: Vec<TraceRecord>) -> Self {
        records.sort_by_key(|r| r.cycle);
        TraceReplay { records, next: 0 }
    }

    /// Total records in one pass.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

impl Workload for TraceReplay {
    fn generate(&mut self, cycle: u64) -> Vec<PacketSpec> {
        let mut specs = Vec::new();
        while let Some(rec) = self.records.get(self.next).filter(|r| r.cycle <= cycle) {
            specs.push(rec.to_spec());
            self.next += 1;
        }
        specs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                cycle: 0,
                src: 0,
                dst: 5,
                class: PacketClass::ReadRequest,
                payload: vec![FlitData::new(vec![7, 0, 0, 0])],
            },
            TraceRecord {
                cycle: 3,
                src: 5,
                dst: 0,
                class: PacketClass::DataResponse,
                payload: vec![FlitData::new(vec![1, 2, 3, 4]); 5],
            },
        ]
    }

    #[test]
    fn roundtrip_through_json_lines() {
        let mut buf = Vec::new();
        {
            let mut w = TraceWriter::new(&mut buf);
            for r in sample_records() {
                w.write(&r).unwrap();
            }
            assert_eq!(w.records_written(), 2);
            w.finish().unwrap();
        }
        let back = read_trace(BufReader::new(&buf[..])).unwrap();
        assert_eq!(back, sample_records());
    }

    #[test]
    fn record_converts_to_its_spec() {
        let rec = &sample_records()[1];
        let spec = rec.to_spec();
        assert_eq!((spec.src.index(), spec.dst.index(), spec.class), (rec.src, rec.dst, rec.class));
        assert_eq!(spec.payload, rec.payload);
    }

    #[test]
    fn replay_respects_timestamps() {
        let mut replay = TraceReplay::new(sample_records());
        assert_eq!(replay.generate(0).len(), 1);
        assert_eq!(replay.generate(1).len(), 0);
        assert_eq!(replay.generate(2).len(), 0);
        assert_eq!(replay.generate(3).len(), 1);
        assert_eq!(replay.generate(4).len(), 0);
    }

    #[test]
    fn replay_handles_skipped_cycles() {
        // A generate() call at a later cycle delivers everything due.
        let mut replay = TraceReplay::new(sample_records());
        assert_eq!(replay.generate(10).len(), 2);
    }

    /// The JSON-lines form is one object per record, the payload one
    /// word list per flit.
    #[test]
    fn writer_line_is_pinned() {
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf);
        for r in sample_records() {
            w.write(&r).unwrap();
        }
        w.finish().unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            r#"{"cycle":0,"src":0,"dst":5,"class":"ReadRequest","payload":[[7,0,0,0]]}"#
                .to_string()
                + "\n"
                + r#"{"cycle":3,"src":5,"dst":0,"class":"DataResponse","payload":"#
                + r#"[[1,2,3,4],[1,2,3,4],[1,2,3,4],[1,2,3,4],[1,2,3,4]]}"#
                + "\n"
        );
    }

    #[test]
    fn bad_payloads_are_invalid_data() {
        let line = |words: &str| {
            format!(
                r#"{{"cycle":1,"src":0,"dst":5,"class":"ReadRequest","payload":[[7],{words}]}}"#
            )
        };
        let no_flits = r#"{"cycle":1,"src":0,"dst":5,"class":"ReadRequest","payload":[]}"#;
        for text in [line("[]"), line("[1,2,3,4,5,6,7,8,9]"), no_flits.to_string()] {
            let err = read_trace(BufReader::new(text.as_bytes())).expect_err(&text);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{text}");
        }
        let widest = line("[1,2,3,4,5,6,7,8]");
        let back = read_trace(BufReader::new(widest.as_bytes())).unwrap();
        assert_eq!(back[0].payload[1].num_words(), MAX_FLIT_WORDS);
    }

    #[test]
    fn bad_json_is_an_error() {
        let text = b"{not json}\n";
        assert!(read_trace(BufReader::new(&text[..])).is_err());
    }

    #[test]
    fn unsorted_records_are_sorted() {
        let mut recs = sample_records();
        recs.reverse();
        let mut replay = TraceReplay::new(recs);
        let first = replay.generate(0);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].class, PacketClass::ReadRequest);
    }
}
