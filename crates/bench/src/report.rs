//! What an experiment returns: the text it prints, and — for
//! `EXPERIMENTS.json` — its tables and the named scalars EXPERIMENTS.md
//! quotes. Anything read off a wall clock is marked, so the file can keep it
//! apart from the part that is a pure function of the tree.

use serde::Serialize;
use serde_json::JsonValue;
use std::collections::BTreeMap;

#[derive(Debug, Serialize)]
struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

#[derive(Debug, Default, Serialize)]
struct Half {
    tables: Vec<Table>,
    findings: BTreeMap<String, f64>,
}

/// One experiment's output.
#[derive(Debug, Default)]
pub struct Report {
    /// Everything printed, in order: tables laid out paper-style, and lines.
    text: String,
    /// `[deterministic, read off a wall clock]`.
    halves: [Half; 2],
}

impl Report {
    fn push(&mut self, title: &str, headers: &str, rows: Vec<Vec<String>>, timed: bool) {
        let headers: Vec<String> = headers.split(" | ").map(String::from).collect();
        self.text += &crate::format_table(title, &headers, &rows);
        let title = title.to_string();
        self.halves[usize::from(timed)].tables.push(Table {
            title,
            headers,
            rows,
        });
    }

    /// A table; `headers` is the header row, cells separated by ` | `.
    pub fn table(&mut self, title: &str, headers: &str, rows: Vec<Vec<String>>) {
        self.push(title, headers, rows, false);
    }

    /// A table with wall-clock cells.
    pub fn timed_table(&mut self, title: &str, headers: &str, rows: Vec<Vec<String>>) {
        self.push(title, headers, rows, true);
    }

    /// A line of text (not recorded in the JSON).
    pub fn line(&mut self, text: impl AsRef<str>) {
        self.text += text.as_ref();
        self.text.push('\n');
    }

    /// A named scalar, in the unit the tables print it in.
    pub fn finding(&mut self, key: impl Into<String>, value: f64) {
        self.halves[0].findings.insert(key.into(), value);
    }

    /// A named scalar read off a wall clock.
    pub fn timing(&mut self, key: impl Into<String>, value: f64) {
        self.halves[1].findings.insert(key.into(), value);
    }

    pub fn print(&self) {
        print!("{}", self.text);
    }

    /// `{"tables": […], "findings": {…}}` of the wall-clock (`timed`) or of
    /// the deterministic half of this report; `None` for no wall-clock content.
    pub fn to_json(&self, timed: bool) -> Option<JsonValue> {
        let half = &self.halves[usize::from(timed)];
        let empty = half.tables.is_empty() && half.findings.is_empty();
        (!(timed && empty)).then(|| half.to_value())
    }
}
