//! Report/verdict serde encodings (feature `serde`): JSON-object-shaped
//! maps for [`Warning`], [`Forced`], [`Verdict`], [`StreamReport`],
//! [`PoolReport`], [`MetricsSnapshot`], and [`StreamLagSnapshot`].
//!
//! These are the payloads `tempo-serve` streams back to clients over its
//! egress protocol, so the encodings are stable, field-named maps (never
//! positional tuples): unknown fields are ignored on decode, letting old
//! clients read frames from newer servers. Rationals use `tempo-math`'s
//! exact `"num/den"` string form throughout — nothing round-trips
//! through floating point.

use std::sync::Arc;

use serde::de::{Error as DeError, Unexpected};
use serde::ser::Error as SerError;
use serde::{Deserialize, Deserializer, Serialize, Serializer, Value, ValueError};

use tempo_core::serde_util::{FieldMap, MapBuilder};
use tempo_math::Rat;

use crate::metrics::{MetricsSnapshot, StreamLagSnapshot, SLACK_BUCKETS};
use crate::pool::{PoolReport, StreamReport};
use crate::verdict::{Forced, Verdict, Warning};

fn hist_from_vec<E: DeError>(v: Vec<u64>, what: &str) -> Result<[u64; SLACK_BUCKETS], E> {
    let len = v.len();
    v.try_into().map_err(|_| {
        E::custom(format!(
            "{what} must have {SLACK_BUCKETS} buckets, got {len}"
        ))
    })
}

impl Serialize for Warning {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let encode = || -> Result<Value, ValueError> {
            let mut m = MapBuilder::new();
            m.put("condition", &*self.condition)?;
            m.put("condition_index", &self.condition_index)?;
            m.put("trigger_index", &self.trigger_index)?;
            m.put("deadline", &self.deadline)?;
            m.put("at", &self.at)?;
            m.put("slack", &self.slack)?;
            m.put("horizon", &self.horizon)?;
            Ok(m.finish())
        };
        serializer.serialize_value(encode().map_err(S::Error::custom)?)
    }
}

impl<'de> Deserialize<'de> for Warning {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Warning, D::Error> {
        let mut m = FieldMap::<D::Error>::new(deserializer.deserialize_value()?, "a warning")?;
        Ok(Warning {
            condition: Arc::from(m.take::<String>("condition")?),
            condition_index: m.take("condition_index")?,
            trigger_index: m.take("trigger_index")?,
            deadline: m.take("deadline")?,
            at: m.take("at")?,
            slack: m.take("slack")?,
            horizon: m.take("horizon")?,
        })
    }
}

impl Serialize for Forced {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let encode = || -> Result<Value, ValueError> {
            let mut m = MapBuilder::new();
            m.put("condition", &*self.condition)?;
            m.put("condition_index", &self.condition_index)?;
            m.put("action", &*self.action)?;
            m.put("trigger_index", &self.trigger_index)?;
            m.put("earliest", &self.earliest)?;
            m.put("at", &self.at)?;
            m.put("margin", &self.margin)?;
            m.put("horizon", &self.horizon)?;
            Ok(m.finish())
        };
        serializer.serialize_value(encode().map_err(S::Error::custom)?)
    }
}

impl<'de> Deserialize<'de> for Forced {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Forced, D::Error> {
        let mut m =
            FieldMap::<D::Error>::new(deserializer.deserialize_value()?, "a forced window")?;
        Ok(Forced {
            condition: Arc::from(m.take::<String>("condition")?),
            condition_index: m.take("condition_index")?,
            action: Arc::from(m.take::<String>("action")?),
            trigger_index: m.take("trigger_index")?,
            earliest: m.take("earliest")?,
            at: m.take("at")?,
            margin: m.take("margin")?,
            horizon: m.take("horizon")?,
        })
    }
}

impl Serialize for Verdict {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let encode = || -> Result<Value, ValueError> {
            let mut m = MapBuilder::new();
            match self {
                Verdict::Ok => m.put("type", "ok")?,
                Verdict::Warning(w) => {
                    m.put("type", "warning")?;
                    m.put("warning", w)?;
                }
                Verdict::Forced(fw) => {
                    m.put("type", "forced")?;
                    m.put("forced", fw)?;
                }
                Verdict::LowerBoundViolation(v) => {
                    m.put("type", "lower_bound_violation")?;
                    m.put("violation", v)?;
                }
                Verdict::UpperBoundViolation(v) => {
                    m.put("type", "upper_bound_violation")?;
                    m.put("violation", v)?;
                }
            }
            Ok(m.finish())
        };
        serializer.serialize_value(encode().map_err(S::Error::custom)?)
    }
}

impl<'de> Deserialize<'de> for Verdict {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Verdict, D::Error> {
        let mut m = FieldMap::<D::Error>::new(deserializer.deserialize_value()?, "a verdict")?;
        let tag: String = m.take("type")?;
        match tag.as_str() {
            "ok" => Ok(Verdict::Ok),
            "warning" => Ok(Verdict::Warning(m.take("warning")?)),
            "forced" => Ok(Verdict::Forced(m.take("forced")?)),
            "lower_bound_violation" => Ok(Verdict::LowerBoundViolation(m.take("violation")?)),
            "upper_bound_violation" => Ok(Verdict::UpperBoundViolation(m.take("violation")?)),
            other => Err(D::Error::invalid_value(
                Unexpected::Str(other),
                &"a verdict type tag",
            )),
        }
    }
}

impl Serialize for StreamLagSnapshot {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let encode = || -> Result<Value, ValueError> {
            let mut m = MapBuilder::new();
            m.put("stream", &self.stream)?;
            m.put("enqueued", &self.enqueued)?;
            m.put("lag", &self.lag)?;
            Ok(m.finish())
        };
        serializer.serialize_value(encode().map_err(S::Error::custom)?)
    }
}

impl<'de> Deserialize<'de> for StreamLagSnapshot {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<StreamLagSnapshot, D::Error> {
        let mut m =
            FieldMap::<D::Error>::new(deserializer.deserialize_value()?, "a stream lag snapshot")?;
        Ok(StreamLagSnapshot {
            stream: m.take("stream")?,
            enqueued: m.take("enqueued")?,
            lag: m.take("lag")?,
        })
    }
}

impl Serialize for MetricsSnapshot {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let encode = || -> Result<Value, ValueError> {
            let mut m = MapBuilder::new();
            m.put("events", &self.events)?;
            m.put("obligations_opened", &self.obligations_opened)?;
            m.put("obligations_discharged", &self.obligations_discharged)?;
            m.put("obligations_violated", &self.obligations_violated)?;
            m.put("max_queue_depth", &self.max_queue_depth)?;
            m.put("dropped_events", &self.dropped_events)?;
            m.put("failed_streams", &self.failed_streams)?;
            m.put("warnings", &self.warnings)?;
            m.put("warning_slack_hist", self.warning_slack_hist.as_slice())?;
            m.put("forced", &self.forced)?;
            m.put("forced_margin_hist", self.forced_margin_hist.as_slice())?;
            m.put("min_slack", &self.min_slack)?;
            m.put("batches", &self.batches)?;
            m.put("batched_events", &self.batched_events)?;
            m.put("max_batch", &self.max_batch)?;
            m.put("streams", &self.streams)?;
            Ok(m.finish())
        };
        serializer.serialize_value(encode().map_err(S::Error::custom)?)
    }
}

impl<'de> Deserialize<'de> for MetricsSnapshot {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<MetricsSnapshot, D::Error> {
        let mut m =
            FieldMap::<D::Error>::new(deserializer.deserialize_value()?, "a metrics snapshot")?;
        Ok(MetricsSnapshot {
            events: m.take("events")?,
            obligations_opened: m.take("obligations_opened")?,
            obligations_discharged: m.take("obligations_discharged")?,
            obligations_violated: m.take("obligations_violated")?,
            max_queue_depth: m.take("max_queue_depth")?,
            dropped_events: m.take("dropped_events")?,
            failed_streams: m.take("failed_streams")?,
            warnings: m.take("warnings")?,
            warning_slack_hist: hist_from_vec::<D::Error>(
                m.take("warning_slack_hist")?,
                "warning_slack_hist",
            )?,
            forced: m.take("forced")?,
            forced_margin_hist: hist_from_vec::<D::Error>(
                m.take("forced_margin_hist")?,
                "forced_margin_hist",
            )?,
            min_slack: m.take::<Option<Rat>>("min_slack")?,
            batches: m.take("batches")?,
            batched_events: m.take("batched_events")?,
            max_batch: m.take("max_batch")?,
            streams: m.take("streams")?,
        })
    }
}

impl Serialize for StreamReport {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let encode = || -> Result<Value, ValueError> {
            let mut m = MapBuilder::new();
            m.put("stream", &self.stream)?;
            m.put("events", &self.events)?;
            m.put("violations", &self.violations)?;
            m.put("warnings", &self.warnings)?;
            m.put("forced", &self.forced)?;
            m.put("failed", &self.failed)?;
            Ok(m.finish())
        };
        serializer.serialize_value(encode().map_err(S::Error::custom)?)
    }
}

impl<'de> Deserialize<'de> for StreamReport {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<StreamReport, D::Error> {
        let mut m =
            FieldMap::<D::Error>::new(deserializer.deserialize_value()?, "a stream report")?;
        Ok(StreamReport {
            stream: m.take("stream")?,
            events: m.take("events")?,
            violations: m.take("violations")?,
            warnings: m.take("warnings")?,
            forced: m.take("forced")?,
            failed: m.take("failed")?,
        })
    }
}

impl Serialize for PoolReport {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let encode = || -> Result<Value, ValueError> {
            let mut m = MapBuilder::new();
            m.put("streams", &self.streams)?;
            m.put("metrics", &self.metrics)?;
            Ok(m.finish())
        };
        serializer.serialize_value(encode().map_err(S::Error::custom)?)
    }
}

impl<'de> Deserialize<'de> for PoolReport {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<PoolReport, D::Error> {
        let mut m = FieldMap::<D::Error>::new(deserializer.deserialize_value()?, "a pool report")?;
        Ok(PoolReport {
            streams: m.take("streams")?,
            metrics: m.take("metrics")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_core::{Violation, ViolationKind};

    fn round_trip<T>(value: &T) -> T
    where
        T: Serialize + for<'de> Deserialize<'de>,
    {
        let json = serde_json::to_string(value).unwrap();
        serde_json::from_str(&json).unwrap()
    }

    fn sample_warning() -> Warning {
        Warning {
            condition: "C".into(),
            condition_index: 1,
            trigger_index: 3,
            deadline: Rat::from(10),
            at: Rat::new(17, 2),
            slack: Rat::new(3, 2),
            horizon: Rat::new(3, 2),
        }
    }

    fn sample_forced() -> Forced {
        Forced {
            condition: "D".into(),
            condition_index: 0,
            action: "grant".into(),
            trigger_index: 2,
            earliest: Rat::from(7),
            at: Rat::from(2),
            margin: Rat::from(5),
            horizon: Rat::from(3),
        }
    }

    fn sample_violation() -> Violation {
        Violation {
            condition: "C".into(),
            kind: ViolationKind::UpperBound {
                trigger_index: 4,
                deadline: Rat::new(9, 4),
            },
        }
    }

    #[test]
    fn predictions_round_trip() {
        let w = sample_warning();
        assert_eq!(round_trip(&w), w);
        let fw = sample_forced();
        assert_eq!(round_trip(&fw), fw);
    }

    #[test]
    fn verdicts_round_trip() {
        for v in [
            Verdict::Ok,
            Verdict::Warning(sample_warning()),
            Verdict::Forced(sample_forced()),
            Verdict::UpperBoundViolation(sample_violation()),
            Verdict::LowerBoundViolation(Violation {
                condition: "L".into(),
                kind: ViolationKind::LowerBound {
                    trigger_index: 0,
                    event_index: 2,
                    earliest: Rat::from(4),
                },
            }),
        ] {
            assert_eq!(round_trip(&v), v);
        }
        assert!(serde_json::from_str::<Verdict>("{\"type\":\"maybe\"}").is_err());
    }

    #[test]
    fn reports_round_trip() {
        let report = StreamReport {
            stream: 7,
            events: 100,
            violations: vec![sample_violation()],
            warnings: vec![sample_warning()],
            forced: vec![sample_forced()],
            failed: false,
        };
        assert_eq!(round_trip(&report), report);

        let mut metrics = MetricsSnapshot {
            events: 100,
            obligations_opened: 10,
            obligations_discharged: 8,
            obligations_violated: 1,
            max_queue_depth: 12,
            warnings: 2,
            min_slack: Some(Rat::new(1, 2)),
            streams: vec![StreamLagSnapshot {
                stream: 7,
                enqueued: 100,
                lag: 0,
            }],
            ..MetricsSnapshot::default()
        };
        metrics.warning_slack_hist[0] = 2;
        assert_eq!(round_trip(&metrics), metrics);

        // `min_slack: None` renders as null and comes back as None.
        metrics.min_slack = None;
        assert_eq!(round_trip(&metrics), metrics);

        let pool = PoolReport {
            streams: vec![report],
            metrics,
        };
        assert_eq!(round_trip(&pool), pool);
    }

    #[test]
    fn unknown_fields_are_ignored() {
        let json = "{\"stream\":1,\"enqueued\":5,\"lag\":2,\"future_field\":true}";
        let lag: StreamLagSnapshot = serde_json::from_str(json).unwrap();
        assert_eq!(lag.stream, 1);
        assert_eq!(lag.lag, 2);
    }

    #[test]
    fn histogram_length_is_checked() {
        let mut metrics_json = serde_json::to_string(&MetricsSnapshot::default()).unwrap();
        metrics_json = metrics_json.replace(
            "\"warning_slack_hist\":[0,0,0,0,0]",
            "\"warning_slack_hist\":[0,0]",
        );
        assert!(serde_json::from_str::<MetricsSnapshot>(&metrics_json).is_err());
    }
}
