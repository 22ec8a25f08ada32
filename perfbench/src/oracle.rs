//! The answer oracle: canonical records computed in-process before any
//! timing, and the exact reply bytes the fleet must return for them.
//!
//! Records are a pure function of `(task, max_rounds)` (Proposition 3.1),
//! and the service replays them byte for byte, so every warm reply is
//! known in full before the run. A cold question differs from its shape
//! only in the task name, which the record carries in its `"task"` field;
//! the verdicts and the witness are the shape's.

use crate::workload::{cold_shapes, warm_keys, Shape, BATCH};
use iis_cluster::{batch_envelope, Answer};
use iis_core::cache::{cache_key, report_to_json};
use iis_core::solvability::{solve_up_to_opts, SolveOptions};
use iis_obs::json::FromJson as _;
use iis_obs::{Json, ToJson as _};
use iis_tasks::library::parse_spec;
use iis_tasks::Task;

/// Stands in for the task name while a cold shape's texts are split
/// around it.
const NAME_MARK: &str = "@@perfbench-name@@";

/// The options `iis serve` solves with (its request defaults).
pub fn serve_options() -> SolveOptions {
    SolveOptions::new().budget(1_000_000).jobs(1)
}

/// One warm key with everything needed to ask it and check the reply.
pub struct WarmKey {
    /// The question.
    pub shape: Shape,
    /// The content address the shards file it under.
    pub key: u64,
    /// The canonical record text, as stored.
    pub record: String,
    /// The single-question request body.
    pub question: Json,
    /// The request body, rendered.
    pub body: String,
    /// The exact reply body of a warm (cached) answer.
    pub reply: String,
}

/// One cold shape, with its texts split around the task name.
pub struct ColdShape {
    /// The shape (library spec and bound).
    pub shape: Shape,
    /// The request body before and after the task name.
    body: (String, String),
    /// The reply's `"result": record}` tail before and after the name.
    tail: (String, String),
}

impl ColdShape {
    /// The request body asking this shape under task name `name`.
    pub fn body(&self, name: &str) -> String {
        [self.body.0.as_str(), name, self.body.1.as_str()].concat()
    }

    /// Whether `reply` is this shape's canonical answer for task `name`:
    /// a fresh solve (`"cached": false`) whose record, name aside, is
    /// byte-identical to the shape's.
    pub fn accepts(&self, name: &str, reply: &str) -> bool {
        let tail = [self.tail.0.as_str(), name, self.tail.1.as_str()].concat();
        reply.starts_with("{\"cached\":false,") && reply.ends_with(&tail)
    }
}

/// Every canonical answer a run can be checked against.
pub struct Oracle {
    /// The warm set, in Zipf rank order.
    pub warm: Vec<WarmKey>,
    /// The cold shapes.
    pub cold: Vec<ColdShape>,
}

/// The canonical record of `(task, max_rounds)`, and whether the sweep
/// decided: a witness, or every round refuted.
fn solve_record(task: &Task, max_rounds: usize) -> (Json, bool) {
    let report = solve_up_to_opts(task, max_rounds, &serve_options());
    let decided = report.witness().is_some() || report.results().len() == max_rounds + 1;
    (report_to_json(&report), decided)
}

fn split_at_mark(text: &str) -> (String, String) {
    let (a, b) = text
        .split_once(NAME_MARK)
        .expect("the name marker occurs in the rendered text");
    (a.to_string(), b.to_string())
}

/// The single-question reply the service renders for a cached record.
fn cached_reply(key: u64, record: &str) -> String {
    Json::obj([
        ("cached", Json::Bool(true)),
        ("key", Json::Str(format!("{key:016x}"))),
        (
            "result",
            Json::parse(record).expect("records are valid JSON"),
        ),
    ])
    .to_string()
}

impl Oracle {
    /// Solves every warm key and cold shape in-process.
    ///
    /// # Errors
    ///
    /// A warm key without a witness, or a cold shape the search leaves
    /// undecided, is a workload definition error.
    pub fn build() -> Result<Oracle, String> {
        let mut warm = Vec::new();
        for shape in warm_keys() {
            let task = parse_spec(&shape.spec)?;
            let (record, _) = solve_record(&task, shape.max_rounds);
            if record.get("witness") == Some(&Json::Null) {
                return Err(format!("warm key {shape:?} has no witness"));
            }
            let record = record.to_string();
            let key = cache_key(&task, shape.max_rounds);
            let question = Json::obj([
                ("spec", Json::Str(shape.spec.clone())),
                ("max_rounds", shape.max_rounds.to_json()),
            ]);
            warm.push(WarmKey {
                body: question.to_string(),
                reply: cached_reply(key, &record),
                question,
                record,
                shape,
                key,
            })
        }
        let mut cold = Vec::new();
        for shape in cold_shapes() {
            let mut task_json = parse_spec(&shape.spec)?.to_json();
            if let Json::Obj(fields) = &mut task_json {
                fields[0] = ("name".to_string(), Json::Str(NAME_MARK.to_string()));
            }
            // the task exactly as a shard rebuilds it from the request
            let task = Task::from_json(&task_json).map_err(|e| e.to_string())?;
            let (record, decided) = solve_record(&task, shape.max_rounds);
            if !decided {
                return Err(format!("cold shape {shape:?} is undecided"));
            }
            let body = Json::obj([
                ("task", task_json),
                ("max_rounds", shape.max_rounds.to_json()),
            ])
            .to_string();
            let tail = Json::obj([("result", record)]).to_string();
            cold.push(ColdShape {
                body: split_at_mark(&body),
                tail: split_at_mark(&tail[1..]),
                shape,
            });
        }
        Ok(Oracle { warm, cold })
    }

    /// The batch request body for warm draws `draws` and the exact
    /// envelope the gateway must answer it with.
    pub fn batch(&self, draws: &[usize]) -> (String, String) {
        debug_assert!(draws.len() <= BATCH);
        let questions = draws.iter().map(|&d| self.warm[d].question.clone());
        let body = Json::obj([("questions", Json::Arr(questions.collect()))]).to_string();
        let answers: Vec<Answer> = draws
            .iter()
            .map(|&d| Answer {
                status: 200,
                body: Json::parse(&self.warm[d].reply).expect("replies are valid JSON"),
            })
            .collect();
        (body, batch_envelope(&answers))
    }

    /// How many answers of a batch `envelope` for `draws` are wrong or
    /// missing (all of them when the envelope does not parse).
    pub fn batch_failures(&self, draws: &[usize], envelope: &str) -> usize {
        let Ok(v) = Json::parse(envelope) else {
            return draws.len();
        };
        let Some(Json::Arr(answers)) = v.get("answers") else {
            return draws.len();
        };
        draws
            .iter()
            .enumerate()
            .filter(|&(i, &d)| {
                let ok = answers.get(i).is_some_and(|a| {
                    a.get("status").and_then(Json::as_u64) == Some(200)
                        && a.get("body").map(Json::to_string).as_deref()
                            == Some(self.warm[d].reply.as_str())
                });
                !ok
            })
            .count()
    }
}
