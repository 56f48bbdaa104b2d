//! The one writer and the one reader of the `BENCH_*.json` artifacts.
//!
//! The build is hermetic (no serde), so the reports are assembled here: a
//! [`Json`] value is built member by member and rendered in the layout the
//! committed artifacts have always had — the root object one member per
//! line, arrays of records one record per line, everything else inline.
//! Numbers are formatted where they are added (`num(key, value, decimals)`),
//! so a report's precision is visible at its call site and the output of a
//! seeded run is byte-stable.

use std::str::FromStr;

/// A JSON value under construction.
#[derive(Debug, Clone)]
pub enum Json {
    /// A number or a string, already in its JSON spelling.
    Scalar(String),
    /// An object (every member keyed) or, with the flag set, an array (no
    /// member keyed).
    Nested(Layout, bool, Vec<(Option<String>, Json)>),
}

/// How an object or array is laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One member per line, indented under the container.
    Lines,
    /// `{ "a": 1, "b": 2 }` / `[1, 2]` on the current line.
    Inline,
    /// A record in an array: leading scalars share the first line, every
    /// nested member starts a line of its own.
    Record,
}

impl Json {
    /// The report's root object: one member per line.
    pub fn root() -> Json {
        Json::Nested(Layout::Lines, false, Vec::new())
    }

    /// An object written on one line.
    pub fn inline() -> Json {
        Json::Nested(Layout::Inline, false, Vec::new())
    }

    /// An object that is one record of a [`Json::rows`] array.
    pub fn record() -> Json {
        Json::Nested(Layout::Record, false, Vec::new())
    }

    /// An array written on one line.
    pub fn list<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Nested(
            Layout::Inline,
            true,
            items.into_iter().map(|v| (None, v.into())).collect(),
        )
    }

    /// An array written one element per line.
    pub fn rows<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Nested(
            Layout::Lines,
            true,
            items.into_iter().map(|v| (None, v.into())).collect(),
        )
    }

    /// Adds a member to an object: an integer, a string, or a nested value.
    pub fn put(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Nested(_, false, members) => members.push((Some(key.into()), value.into())),
            other => panic!("put(`{key}`) on a non-object: {other:?}"),
        }
        self
    }

    /// Adds a float member written with `decimals` fractional digits.
    pub fn num(self, key: &str, value: f64, decimals: usize) -> Json {
        self.put(key, Json::Scalar(format!("{value:.decimals$}")))
    }

    /// The finished document, newline-terminated.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let (layout, array, members) = match self {
            Json::Scalar(s) => return out.push_str(s),
            Json::Nested(layout, array, members) => (*layout, *array, members),
        };
        let new_line = |out: &mut String, indent: usize| {
            out.push('\n');
            out.extend(std::iter::repeat(' ').take(indent));
        };
        // Objects on one line keep a space inside their braces.
        let spaced = !array && layout != Layout::Lines;
        out.push(if array { '[' } else { '{' });
        for (i, (key, value)) in members.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let nested = matches!(value, Json::Nested(..));
            if layout == Layout::Lines || (layout == Layout::Record && i > 0 && nested) {
                new_line(out, indent + 2);
            } else if i > 0 || spaced {
                out.push(' ');
            }
            if let Some(key) = key {
                out.push_str(&quoted(key));
                out.push_str(": ");
            }
            value.write(out, indent + 2);
        }
        if layout == Layout::Lines {
            new_line(out, indent);
        } else if spaced {
            out.push(' ');
        }
        out.push(if array { ']' } else { '}' });
    }
}

/// `s` as a JSON string literal — the one escaping routine.
fn quoted(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            '\n' => out.push_str("\\n"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

macro_rules! json_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Scalar(v.to_string())
            }
        }
    )*};
}
json_from_int!(u32, u64, usize, i64);

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Scalar(quoted(s))
    }
}

impl From<&String> for Json {
    fn from(s: &String) -> Json {
        Json::Scalar(quoted(s))
    }
}

/// The next positional command-line argument parsed as `T`; `default` when
/// it is absent or does not parse (every `exp_*` binary's convention).
pub fn arg<T: FromStr>(args: &mut impl Iterator<Item = String>, default: T) -> T {
    args.next().and_then(|a| a.parse().ok()).unwrap_or(default)
}

/// Writes `BENCH_<experiment>.json` into the current directory and says so.
pub fn write_artifact(experiment: &str, json: &str) {
    let path = format!("BENCH_{experiment}.json");
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

/// The first numeric occurrence of `key` in a rendered report.
pub fn field(json: &str, key: &str) -> f64 {
    field_at(json, key, 0)
}

/// The `n`-th (0-based) numeric occurrence of `key` in a rendered report.
/// Panics, naming the key, when there is no such occurrence or it is not a
/// number: the smoke tests read committed artifacts through this.
pub fn field_at(json: &str, key: &str, n: usize) -> f64 {
    let pat = format!("\"{key}\":");
    let mut rest = json;
    for seen in 0..=n {
        let at = rest
            .find(&pat)
            .unwrap_or_else(|| panic!("report has {seen} occurrence(s) of `{key}`, wanted #{n}"));
        rest = &rest[at + pat.len()..];
    }
    let end = rest
        .find([',', '\n', '}'])
        .unwrap_or_else(|| panic!("unterminated `{key}`"));
    rest[..end]
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("`{key}` is not numeric: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layouts_render_like_the_committed_artifacts() {
        let report = Json::root()
            .put("experiment", "demo")
            .num("rate", 0.5, 2)
            .put(
                "plan",
                Json::inline()
                    .num("drop_p", 0.1, 2)
                    .put("crash_every", 200u64),
            )
            .put(
                "points",
                Json::rows([
                    Json::record()
                        .put("name", "a")
                        .num("x", 1.0, 1)
                        .put("inner", Json::inline().put("k", 1u64))
                        .put("ids", Json::list([1u64, 2])),
                    Json::record().put("name", "b"),
                ]),
            )
            .put("log", Json::rows(["say \"hi\"\n"]));
        let want = r#"{
  "experiment": "demo",
  "rate": 0.50,
  "plan": { "drop_p": 0.10, "crash_every": 200 },
  "points": [
    { "name": "a", "x": 1.0,
      "inner": { "k": 1 },
      "ids": [1, 2] },
    { "name": "b" }
  ],
  "log": [
    "say \"hi\"\n"
  ]
}
"#;
        assert_eq!(report.render(), want);
    }

    #[test]
    fn fields_are_read_back_by_occurrence() {
        let json = Json::root()
            .put("hits", 3u64)
            .put(
                "phases",
                Json::rows([
                    Json::record()
                        .put("fragment_hits", 9u64)
                        .num("p50_ms", 0.25, 3),
                    Json::record().put("hits", 5u64).num("p50_ms", 1.5, 3),
                ]),
            )
            .render();
        assert_eq!(field(&json, "hits"), 3.0);
        assert_eq!(
            field_at(&json, "hits", 1),
            5.0,
            "`fragment_hits` is another key"
        );
        assert_eq!(field_at(&json, "p50_ms", 1), 1.5);
    }

    #[test]
    #[should_panic(expected = "wanted #2")]
    fn a_missing_occurrence_names_the_key() {
        field_at("{ \"a\": 1, \"a\": 2 }", "a", 2);
    }

    #[test]
    fn arg_falls_back_on_absent_or_unparsable_input() {
        let mut args = ["12", "x"].into_iter().map(String::from);
        assert_eq!(arg(&mut args, 7usize), 12);
        assert_eq!(arg(&mut args, 7u64), 7, "unparsable");
        assert_eq!(arg(&mut args, 7i64), 7, "absent");
    }
}
