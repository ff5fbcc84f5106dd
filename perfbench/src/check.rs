//! Output checks. A check that fails makes the operation count as failed
//! and the run as incorrect.

use std::collections::BTreeMap;

use qrank_core::PipelineReport;
use qrank_serve::ShardedStore;

/// `None` when two reports agree bit for bit on every per-page column and
/// summary; otherwise the first difference.
pub fn report_mismatch(a: &PipelineReport, b: &PipelineReport) -> Option<String> {
    if a.pages != b.pages {
        return Some("page lists differ".into());
    }
    if a.trends != b.trends || a.selected != b.selected {
        return Some("trends or report selection differ".into());
    }
    let columns: [(&str, &[f64], &[f64]); 5] = [
        ("estimates", &a.estimates, &b.estimates),
        ("current", &a.current, &b.current),
        ("future", &a.future, &b.future),
        ("err_estimate", &a.err_estimate, &b.err_estimate),
        ("err_current", &a.err_current, &b.err_current),
    ];
    for (name, x, y) in columns {
        if !same_bits(x, y) {
            return Some(format!("the {name} column differs"));
        }
    }
    if a.trajectories.times.len() != b.trajectories.times.len()
        || !same_bits(&a.trajectories.times, &b.trajectories.times)
        || a.trajectories.values.len() != b.trajectories.values.len()
        || a.trajectories
            .values
            .iter()
            .zip(&b.trajectories.values)
            .any(|(x, y)| !same_bits(x, y))
    {
        return Some("trajectories differ".into());
    }
    // Debug prints every f64 in its shortest round-trip form, so equal
    // strings mean equal bits for the summaries' non-NaN fields.
    if format!("{:?}{:?}", a.summary_estimate, a.summary_current)
        != format!("{:?}{:?}", b.summary_estimate, b.summary_current)
    {
        return Some("summaries differ".into());
    }
    None
}

fn same_bits(x: &[f64], y: &[f64]) -> bool {
    x.len() == y.len() && x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// `None` when the published store holds exactly `report`'s rows: the
/// same pages, and bitwise-equal quality (the estimate), pagerank (the
/// current popularity) and trend for each.
pub fn store_vs_report(store: &ShardedStore, report: &PipelineReport) -> Option<String> {
    let view = store.current();
    if view.len() != report.pages.len() {
        return Some(format!(
            "store has {} pages, cold report {}",
            view.len(),
            report.pages.len()
        ));
    }
    for (i, page) in report.pages.iter().enumerate() {
        let Some(s) = view.score(*page) else {
            return Some(format!("page {} missing from the store", page.0));
        };
        if s.quality.to_bits() != report.estimates[i].to_bits()
            || s.pagerank.to_bits() != report.current[i].to_bits()
            || s.trend != report.trends[i]
        {
            return Some(format!(
                "scores of page {} differ from the cold report",
                page.0
            ));
        }
    }
    None
}

/// `None` when two stores publish the same generation, snapshot time,
/// page order and score bits.
pub fn store_mismatch(a: &ShardedStore, b: &ShardedStore) -> Option<String> {
    let (a, b) = (a.current(), b.current());
    if a.generation() != b.generation() {
        return Some(format!(
            "generation {} vs {}",
            a.generation(),
            b.generation()
        ));
    }
    if a.snapshot_time().to_bits() != b.snapshot_time().to_bits() || a.len() != b.len() {
        return Some("snapshot time or page count differs".into());
    }
    for ((pa, sa), (pb, sb)) in a.topk(a.len()).iter().zip(b.topk(b.len()).iter()) {
        if pa != pb
            || sa.quality.to_bits() != sb.quality.to_bits()
            || sa.pagerank.to_bits() != sb.pagerank.to_bits()
            || sa.trend != sb.trend
        {
            return Some(format!("rows differ at page {} / {}", pa.0, pb.0));
        }
    }
    None
}

/// A request the serve workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Read {
    /// `score <page>`.
    Score(u64),
    /// `topk <k>`.
    TopK(usize),
}

impl Read {
    /// The request line, without its newline.
    pub fn line(&self) -> String {
        match self {
            Read::Score(p) => format!("score {p}"),
            Read::TopK(k) => format!("topk {k}"),
        }
    }
}

/// Per-connection response checker.
#[derive(Debug, Clone)]
pub struct ResponseCheck {
    pages: usize,
    last_generation: u64,
}

impl ResponseCheck {
    /// A checker for a store of `pages` pages.
    pub fn new(pages: usize) -> Self {
        ResponseCheck {
            pages,
            last_generation: 0,
        }
    }

    /// The highest generation seen so far.
    pub fn generation(&self) -> u64 {
        self.last_generation
    }

    /// Check the response `line` to `read`. Every line must parse; `score`
    /// must echo its page; generations never go backwards on one
    /// connection; `topk` rows are sorted by quality descending, then page
    /// ascending, and number `min(k, pages)`. A refusal (`"ok":false`, e.g.
    /// `overloaded`) is an error whose message starts with `refused: `.
    pub fn check(&mut self, read: Read, line: &str) -> Result<(), String> {
        let v = Json::parse(line)?;
        let obj = v.object().ok_or("response is not an object")?;
        if obj.get("ok").and_then(Json::boolean) != Some(true) {
            let err = obj.get("error").and_then(Json::string).unwrap_or("?");
            return Err(format!("refused: {err}"));
        }
        let generation = obj
            .get("generation")
            .and_then(Json::number)
            .ok_or("no generation")? as u64;
        if generation < self.last_generation {
            return Err(format!(
                "generation went back from {} to {generation}",
                self.last_generation
            ));
        }
        self.last_generation = generation;
        match read {
            Read::Score(page) => {
                if obj.get("page").and_then(Json::number) != Some(page as f64) {
                    return Err(format!("score {page} answered for another page"));
                }
                for field in ["quality", "pagerank"] {
                    obj.get(field)
                        .and_then(Json::number)
                        .ok_or("score lacks a number")?;
                }
            }
            Read::TopK(k) => {
                let rows = obj
                    .get("pages")
                    .and_then(Json::array)
                    .ok_or("topk has no rows")?;
                if rows.len() != k.min(self.pages) {
                    return Err(format!("topk {k} returned {} rows", rows.len()));
                }
                let mut prev: Option<(f64, f64)> = None;
                for row in rows {
                    let row = row.object().ok_or("topk row is not an object")?;
                    let q = row
                        .get("quality")
                        .and_then(Json::number)
                        .ok_or("row lacks quality")?;
                    let p = row
                        .get("page")
                        .and_then(Json::number)
                        .ok_or("row lacks page")?;
                    if let Some((pq, pp)) = prev {
                        if q > pq || (q == pq && p <= pp) {
                            return Err("topk rows out of order".into());
                        }
                    }
                    prev = Some((q, p));
                }
            }
        }
        Ok(())
    }
}

/// A parsed JSON value; just enough JSON for the protocol's responses.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string (escapes other than `\"` and `\\` are kept verbatim).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parse one complete JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing bytes at {}", p.i));
        }
        Ok(v)
    }

    fn object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    fn array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    fn number(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    fn boolean(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn string(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at {}", b as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => self.obj(),
            Some(b'[') => self.arr(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            Some(b'n') => self.word("null", Json::Null),
            Some(_) => self.num(),
            None => Err("unexpected end".into()),
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(w.as_bytes()) {
            self.i += w.len();
            Ok(v)
        } else {
            Err(format!("bad literal at {}", self.i))
        }
    }

    fn num(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self.i < self.s.len()
            && matches!(
                self.s[self.i],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|_| "string is not UTF-8".into());
                }
                Some(b'\\') => {
                    let next = *self.s.get(self.i + 1).ok_or("unterminated escape")?;
                    if !matches!(next, b'"' | b'\\') {
                        out.push(b'\\');
                    }
                    out.push(next);
                    self.i += 2;
                }
                Some(&b) => {
                    out.push(b);
                    self.i += 1;
                }
            }
        }
    }

    fn arr(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.s.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.ws();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at {}", self.i)),
            }
        }
    }

    fn obj(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.ws();
        if self.s.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.eat(b':')?;
            map.insert(key, self.value()?);
            self.ws();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at {}", self.i)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrank_core::run_pipeline;
    use qrank_graph::{CsrGraph, PageId, Snapshot, SnapshotSeries};

    const SCORE: &str =
        r#"{"ok":true,"page":7,"quality":0.5,"pagerank":1.25,"trend":"flat","generation":3}"#;
    const TOPK: &str = r#"{"ok":true,"generation":3,"k":3,"pages":[{"page":4,"quality":0.9,"pagerank":1,"trend":"flat"},{"page":2,"quality":0.5,"pagerank":1,"trend":"flat"},{"page":5,"quality":0.5,"pagerank":1,"trend":"flat"}]}"#;

    #[test]
    fn well_formed_responses_pass() {
        let mut c = ResponseCheck::new(10);
        assert_eq!(c.check(Read::Score(7), SCORE), Ok(()));
        assert_eq!(c.check(Read::TopK(3), TOPK), Ok(()));
        assert_eq!(c.generation(), 3);
        // k beyond the store size returns every page.
        let mut small = ResponseCheck::new(3);
        assert_eq!(small.check(Read::TopK(50), TOPK), Ok(()));
    }

    #[test]
    fn corrupted_responses_fail() {
        let bad = [
            (Read::Score(7), SCORE.replace("\"page\":7", "\"page\":8")),
            (Read::Score(7), SCORE[..SCORE.len() - 1].to_string()),
            (Read::Score(7), SCORE.replace("\"quality\":0.5,", "")),
            (
                Read::Score(7),
                r#"{"ok":false,"error":"overloaded","retry_after_ms":5}"#.to_string(),
            ),
            (
                Read::TopK(3),
                TOPK.replace("\"quality\":0.9", "\"quality\":0.4"),
            ),
            (Read::TopK(3), TOPK.replace("\"page\":5", "\"page\":1")),
            (Read::TopK(4), TOPK.to_string()),
            (Read::TopK(3), TOPK.replace("\"pages\"", "\"rows\"")),
        ];
        for (read, line) in &bad {
            let mut c = ResponseCheck::new(10);
            assert!(c.check(*read, line).is_err(), "accepted {line}");
        }
        let mut c = ResponseCheck::new(10);
        let refused = c.check(Read::Score(7), &bad[3].1).unwrap_err();
        assert!(refused.starts_with("refused: overloaded"), "{refused}");
    }

    #[test]
    fn a_generation_going_back_fails() {
        let mut c = ResponseCheck::new(10);
        c.check(Read::Score(7), SCORE).unwrap();
        let older = SCORE.replace("\"generation\":3", "\"generation\":2");
        assert!(c
            .check(Read::Score(7), &older)
            .unwrap_err()
            .contains("went back"));
    }

    #[test]
    fn json_parser_handles_the_protocol_shapes() {
        let v = Json::parse(r#" {"a":[1,-2.5e3,true,null],"b":"x\"y"} "#).unwrap();
        let Json::Obj(o) = v else { panic!("object") };
        assert_eq!(
            o["a"],
            Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-2500.0),
                Json::Bool(true),
                Json::Null
            ])
        );
        assert_eq!(o["b"], Json::Str("x\"y".into()));
        assert!(Json::parse("{\"a\":1} x").is_err());
        assert!(Json::parse("[1,").is_err());
    }

    fn window() -> SnapshotSeries {
        let mut s = SnapshotSeries::new();
        for t in 0..4u32 {
            let mut edges = vec![(0, 1), (1, 2), (2, 3), (3, 0), (4, 0)];
            edges.push((t % 4, 4));
            if t >= 2 {
                edges.push((2, 4));
            }
            let pages = (10..15).map(PageId).collect();
            s.push(Snapshot::new(f64::from(t), CsrGraph::from_edges(5, &edges), pages).unwrap())
                .unwrap();
        }
        s
    }

    #[test]
    fn report_checks_catch_a_flipped_bit() {
        let report = run_pipeline(&window(), &Default::default()).unwrap();
        assert_eq!(report_mismatch(&report, &report.clone()), None);
        let mut bad = report.clone();
        bad.estimates[2] = f64::from_bits(bad.estimates[2].to_bits() ^ 1);
        assert_eq!(
            report_mismatch(&report, &bad).as_deref(),
            Some("the estimates column differs")
        );
        let mut bad = report.clone();
        bad.summary_estimate.mean_error += 1e-12;
        assert_eq!(
            report_mismatch(&report, &bad).as_deref(),
            Some("summaries differ")
        );
    }

    #[test]
    fn store_checks_catch_a_wrong_publish() {
        let report = run_pipeline(&window(), &Default::default()).unwrap();
        let store = ShardedStore::new(1);
        store.publish_report(&report, 1, 3.0);
        assert_eq!(store_vs_report(&store, &report), None);
        let mut bad = report.clone();
        bad.current[0] += 1.0;
        assert!(store_vs_report(&store, &bad).is_some());

        let same = ShardedStore::new(1);
        same.publish_report(&report, 1, 3.0);
        assert_eq!(store_mismatch(&store, &same), None);
        let later = ShardedStore::new(1);
        later.publish_report(&report, 2, 3.0);
        assert!(store_mismatch(&store, &later)
            .unwrap()
            .contains("generation"));
        let other = ShardedStore::new(1);
        other.publish_report(&bad, 1, 3.0);
        assert!(store_mismatch(&store, &other).is_some());
    }
}
