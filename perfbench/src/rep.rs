//! One repetition's outcome, passed from the repetition's own process to
//! the parent as one JSON line.

use std::collections::BTreeMap;

use smtx_serve::json::Json;

/// What one repetition measured and checked.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RepOut {
    /// Measured values by metric name (timings vary run to run).
    pub values: BTreeMap<String, f64>,
    /// Deterministic work counts that must repeat exactly across
    /// repetitions and between the untraced and traced runs.
    pub exact: BTreeMap<String, u64>,
    /// The workload's rows, as serialized by `Report::rows_json` (the fleet
    /// concatenates each unique job's rows in spec order).
    pub rows: String,
    /// Operations attempted: simulations for the figure workloads, jobs
    /// for the fleet.
    pub attempted: u64,
    /// Operations that failed or whose output did not check.
    pub failed: u64,
    /// One line per failure.
    pub errors: Vec<String>,
}

fn num(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(v, format!("{v}"))
    } else {
        Json::Null
    }
}

impl RepOut {
    /// Records a failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.errors.push(why);
    }

    /// Sets a measured value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Sets an exact count.
    pub fn set_exact(&mut self, name: &str, value: u64) {
        self.exact.insert(name.to_string(), value);
    }

    /// One-line JSON encoding.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut o = Json::Obj(BTreeMap::new());
        o.set(
            "values",
            Json::Obj(
                self.values
                    .iter()
                    .map(|(k, &v)| (k.clone(), num(v)))
                    .collect(),
            ),
        );
        o.set(
            "exact",
            Json::Obj(
                self.exact
                    .iter()
                    .map(|(k, &v)| (k.clone(), Json::num_u64(v)))
                    .collect(),
            ),
        );
        o.set("rows", Json::Str(self.rows.clone()));
        o.set("attempted", Json::num_u64(self.attempted));
        o.set("failed", Json::num_u64(self.failed));
        o.set(
            "errors",
            Json::Arr(self.errors.iter().cloned().map(Json::Str).collect()),
        );
        o.to_text()
    }

    /// Decodes [`RepOut::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_json(text: &str) -> Result<RepOut, String> {
        let v = Json::parse(text)?;
        let obj = |key: &str| match v.get(key) {
            Some(Json::Obj(m)) => Ok(m),
            _ => Err(format!("`{key}` is not an object")),
        };
        let int = |key: &str| {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or(format!("`{key}` is not an integer"))
        };
        Ok(RepOut {
            values: obj("values")?
                .iter()
                .filter_map(|(k, x)| x.as_f64().map(|f| (k.clone(), f)))
                .collect(),
            exact: obj("exact")?
                .iter()
                .map(|(k, x)| {
                    x.as_u64()
                        .map(|n| (k.clone(), n))
                        .ok_or(format!("exact `{k}`"))
                })
                .collect::<Result<_, _>>()?,
            rows: v
                .get("rows")
                .and_then(Json::as_str)
                .ok_or("`rows` is not a string")?
                .to_string(),
            attempted: int("attempted")?,
            failed: int("failed")?,
            errors: v
                .get("errors")
                .and_then(Json::as_arr)
                .ok_or("`errors` is not an array")?
                .iter()
                .filter_map(|e| e.as_str().map(String::from))
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_one_json_line() {
        let mut r = RepOut {
            rows: "  \"rows\": [\n  ]\n".into(),
            attempted: 3,
            ..RepOut::default()
        };
        r.set("wall_s", 1.234_567_891);
        r.set("setup_s", 2.5e-5);
        r.set_exact("machine.cycles", u64::MAX);
        r.fail("row 2 differs".into());
        let line = r.to_json();
        assert!(!line.contains('\n'));
        assert_eq!(RepOut::from_json(&line).unwrap(), r);
    }
}
