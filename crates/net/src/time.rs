//! Stream time, checked once where its bytes arrive: the wire codec and
//! the fleet-document decoder build these types from raw `f64` bits and
//! refuse the values no node sends, so the merge behind them never
//! meets a NaN or a stray infinity. Frame stamps stay raw bits; the
//! stream engine counts a non-finite one as malformed.

use marauder_stream::persist::{Field, PersistError, Reader};

/// A finite number of seconds: a stream time or a clock offset. It
/// compares as `f64` compares finite values, so `-0.0` equals `0.0`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct StreamTime(f64);

impl StreamTime {
    /// Zero seconds.
    pub const ZERO: StreamTime = StreamTime(0.0);

    /// `secs` as stream time; `None` unless it is finite.
    pub fn new(secs: f64) -> Option<StreamTime> {
        secs.is_finite().then_some(StreamTime(secs))
    }

    /// The seconds, bit for bit as constructed.
    pub fn secs(self) -> f64 {
        self.0
    }
}

/// The promise that no future frame is stamped below the mark, ordered
/// `NoData < At(_) < Drained`; encoded as one `f64`: `-∞`, time, `+∞`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub enum Watermark {
    /// Nothing promised yet.
    NoData,
    /// No future frame is stamped below this time.
    At(StreamTime),
    /// The stream is complete.
    Drained,
}

impl Watermark {
    /// Decodes the `f64` encoding; NaN promises nothing and is `None`.
    pub fn from_secs(secs: f64) -> Option<Watermark> {
        match StreamTime::new(secs) {
            Some(t) => Some(Watermark::At(t)),
            None if secs.is_nan() => None,
            None if secs < 0.0 => Some(Watermark::NoData),
            None => Some(Watermark::Drained),
        }
    }

    /// The `f64` encoding, the inverse of [`from_secs`](Self::from_secs).
    pub fn secs(self) -> f64 {
        match self {
            Watermark::NoData => f64::NEG_INFINITY,
            Watermark::At(t) => t.secs(),
            Watermark::Drained => f64::INFINITY,
        }
    }

    /// The same promise on a clock `offset` seconds behind: only `At`
    /// moves, and an overflow saturates to `NoData` or `Drained`.
    pub fn behind(self, offset: StreamTime) -> Watermark {
        match self {
            // A difference of finite values is never NaN.
            Watermark::At(t) => Watermark::from_secs(t.secs() - offset.secs()).unwrap_or(self),
            mark => mark,
        }
    }

    /// Whether a release gate at this mark passes a frame stamped
    /// `time_s`. `Drained` passes every frame, a NaN stamp included.
    pub fn covers(self, time_s: f64) -> bool {
        match self {
            Watermark::NoData => false,
            Watermark::At(t) => time_s <= t.secs(),
            Watermark::Drained => true,
        }
    }
}

/// The `f64` bits; a non-finite value is malformed.
impl Field for StreamTime {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let secs: f64 = r.get()?;
        StreamTime::new(secs).ok_or_else(|| r.malformed(format!("time {secs} is not finite")))
    }
}

/// The bits of [`Watermark::secs`]; NaN is malformed.
impl Field for Watermark {
    fn put(&self, out: &mut Vec<u8>) {
        self.secs().put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let secs: f64 = r.get()?;
        Watermark::from_secs(secs).ok_or_else(|| r.malformed("watermark is NaN"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marauder_stream::persist::{open, seal, DocKind};

    fn at(secs: f64) -> Watermark {
        Watermark::At(StreamTime::new(secs).unwrap())
    }

    #[test]
    fn stream_time_holds_only_finite_seconds() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(StreamTime::new(bad), None);
        }
        let neg_zero = StreamTime::new(-0.0).unwrap();
        assert_eq!(neg_zero.secs().to_bits(), (-0.0f64).to_bits());
        assert_eq!(neg_zero, StreamTime::ZERO, "f64's order: -0 equals +0");
        assert!(StreamTime::new(-1.5) < Some(StreamTime::ZERO));
    }

    #[test]
    fn watermarks_order_no_data_then_time_then_drained() {
        let marks = [
            Watermark::NoData,
            at(-1e300),
            at(0.0),
            at(7.5),
            Watermark::Drained,
        ];
        for pair in marks.windows(2) {
            assert!(pair[0] < pair[1], "{pair:?}");
        }
        assert_eq!(
            at(-0.0).partial_cmp(&at(0.0)),
            Some(std::cmp::Ordering::Equal)
        );
    }

    #[test]
    fn secs_is_the_bit_exact_inverse_of_from_secs() {
        for secs in [
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            2.5,
            -1e-310,
            f64::MAX,
            f64::INFINITY,
        ] {
            let mark = Watermark::from_secs(secs).unwrap();
            assert_eq!(mark.secs().to_bits(), secs.to_bits(), "{secs}");
        }
        assert_eq!(
            Watermark::from_secs(f64::NEG_INFINITY),
            Some(Watermark::NoData)
        );
        assert_eq!(
            Watermark::from_secs(f64::INFINITY),
            Some(Watermark::Drained)
        );
        assert_eq!(Watermark::from_secs(f64::NAN), None);
        assert_eq!(Watermark::from_secs(-f64::NAN), None);
    }

    #[test]
    fn behind_moves_only_a_time_and_saturates() {
        let offset = StreamTime::new(2.5).unwrap();
        assert_eq!(at(10.0).behind(offset), at(7.5));
        assert_eq!(Watermark::NoData.behind(offset), Watermark::NoData);
        assert_eq!(Watermark::Drained.behind(offset), Watermark::Drained);
        let huge = StreamTime::new(f64::MAX).unwrap();
        assert_eq!(at(-f64::MAX).behind(huge), Watermark::NoData);
        assert_eq!(
            at(f64::MAX).behind(StreamTime::new(-f64::MAX).unwrap()),
            Watermark::Drained
        );
    }

    #[test]
    fn covers_is_the_release_gate() {
        for stamp in [f64::NEG_INFINITY, 0.0, f64::INFINITY, f64::NAN] {
            assert!(!Watermark::NoData.covers(stamp), "{stamp}");
            assert!(Watermark::Drained.covers(stamp), "{stamp}");
        }
        let gate = at(10.0);
        assert!(gate.covers(f64::NEG_INFINITY) && gate.covers(10.0));
        assert!(!gate.covers(10.5) && !gate.covers(f64::INFINITY) && !gate.covers(f64::NAN));
    }

    #[test]
    fn fields_keep_the_bits_and_refuse_what_no_writer_stores() {
        let doc = seal(DocKind::FleetSnapshot, |out| {
            StreamTime::new(-0.0).unwrap().put(out);
            for mark in [Watermark::NoData, at(3.25), Watermark::Drained] {
                mark.put(out);
            }
        });
        let read = open(&doc, DocKind::FleetSnapshot, |r| {
            Ok((
                r.get::<StreamTime>()?,
                [r.get::<Watermark>()?, r.get()?, r.get()?],
            ))
        })
        .unwrap();
        assert_eq!(read.0.secs().to_bits(), (-0.0f64).to_bits());
        assert_eq!(read.1, [Watermark::NoData, at(3.25), Watermark::Drained]);
        for bits in [f64::NAN.to_bits(), 0x7ff8_dead_beef_0001] {
            let nan = seal(DocKind::FleetSnapshot, |out| bits.put(out));
            assert!(matches!(
                open(&nan, DocKind::FleetSnapshot, |r| r.get::<Watermark>()),
                Err(PersistError::Malformed { .. })
            ));
        }
        for secs in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let bad = seal(DocKind::FleetSnapshot, |out| secs.put(out));
            assert!(matches!(
                open(&bad, DocKind::FleetSnapshot, |r| r.get::<StreamTime>()),
                Err(PersistError::Malformed { .. })
            ));
        }
    }
}
