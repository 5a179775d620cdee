//! Correctness checks on workload outputs. Each check compares the program's
//! output with a computation made apart from the code under test (the
//! digital model, a solo re-serve, the benchmark's own clock arithmetic) or
//! with a property the method must have, and returns an error naming the
//! first violation.

use nora_serve::{GenRequest, GenResult, RequestOutcome};

/// Result of one check: `Err` carries a one-line reason.
pub type Check = Result<(), String>;

/// Every submitted request retired exactly once as `Completed`, with its own
/// prompt followed by exactly its requested number of in-vocab tokens.
/// `results` must be in id order, ids counting from 0 in submission order.
pub fn requests_completed(submitted: &[GenRequest], results: &[GenResult], vocab: usize) -> Check {
    if results.len() != submitted.len() {
        return Err(format!(
            "{} requests submitted, {} retired",
            submitted.len(),
            results.len()
        ));
    }
    for (i, (req, res)) in submitted.iter().zip(results).enumerate() {
        if res.id != i as u64 {
            return Err(format!(
                "result {i} has id {} (missing or duplicate retirement)",
                res.id
            ));
        }
        if res.outcome != RequestOutcome::Completed {
            return Err(format!("request {i} retired {:?}", res.outcome));
        }
        if res.prompt_len != req.prompt.len() || res.tokens[..res.prompt_len] != req.prompt[..] {
            return Err(format!("request {i} does not start with its prompt"));
        }
        let generated = res.generated();
        if generated.len() != req.max_new_tokens {
            return Err(format!(
                "request {i} generated {} tokens, asked for {}",
                generated.len(),
                req.max_new_tokens
            ));
        }
        if let Some(&t) = generated.iter().find(|&&t| t >= vocab) {
            return Err(format!("request {i} generated out-of-vocab token {t}"));
        }
    }
    Ok(())
}

/// Two token streams of the same requests are bit-identical. `what` names
/// the comparison in the error.
pub fn same_tokens(what: &str, expected: &[Vec<usize>], got: &[Vec<usize>]) -> Check {
    if expected.len() != got.len() {
        return Err(format!(
            "{what}: {} vs {} sequences",
            expected.len(),
            got.len()
        ));
    }
    for (i, (e, g)) in expected.iter().zip(got).enumerate() {
        if e != g {
            return Err(format!("{what}: sequence {i} differs: {e:?} vs {g:?}"));
        }
    }
    Ok(())
}

/// The ideal-tile deployment predicted the digital model's token on every
/// scored episode.
pub fn same_predictions(ideal: &[usize], digital: &[usize]) -> Check {
    if ideal.len() != digital.len() {
        return Err(format!(
            "{} ideal-tile vs {} digital predictions",
            ideal.len(),
            digital.len()
        ));
    }
    match ideal.iter().zip(digital).position(|(a, b)| a != b) {
        Some(i) => Err(format!(
            "episode {i}: ideal tiles predicted {}, digital model {}",
            ideal[i], digital[i]
        )),
        None => Ok(()),
    }
}

/// Binomial standard error of an accuracy measured on `n` episodes, with the
/// add-one (Laplace) estimate so that a perfect score still has a spread.
fn binomial_se(correct: usize, n: usize) -> f64 {
    let p = (correct as f64 + 1.0) / (n as f64 + 2.0);
    (p * (1.0 - p) / n as f64).sqrt()
}

/// NORA accuracy lies within `k` standard errors of the digital accuracy
/// scored on the same `n` episodes (SE of the difference of the two).
pub fn within_se(digital_correct: usize, nora_correct: usize, n: usize, k: f64) -> Check {
    let se = binomial_se(digital_correct, n).hypot(binomial_se(nora_correct, n));
    let gap = (digital_correct as f64 - nora_correct as f64) / n as f64;
    if gap.abs() <= k * se {
        Ok(())
    } else {
        Err(format!(
            "NORA {nora_correct}/{n} vs digital {digital_correct}/{n}: gap {:.2} pp exceeds {k} SE ({:.2} pp)",
            100.0 * gap,
            100.0 * k * se
        ))
    }
}

/// Naive deployment accuracy lies at least `margin` below NORA's (the
/// paper's Fig. 5a gap).
pub fn naive_far_below(naive_acc: f64, nora_acc: f64, margin: f64) -> Check {
    if naive_acc + margin <= nora_acc {
        Ok(())
    } else {
        Err(format!(
            "naive accuracy {naive_acc:.3} is not {margin} below NORA {nora_acc:.3}"
        ))
    }
}

/// Maintenance schedule of one maintained drain, as the engine reported it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaintenanceCounts {
    /// Engine virtual clock after the drain (seconds).
    pub virtual_now: f64,
    /// `serve.maint.drift_steps`.
    pub drift_steps: u64,
    /// `serve.maint.recalibrations`.
    pub recalibrations: u64,
    /// `serve.maint.rotations`.
    pub rotations: u64,
}

/// Drift catch-ups and recalibrations equal ⌊clock / interval⌋, with the
/// clock recomputed from the served decode steps; at least one rotation
/// completed. Valid while one round advances the clock by less than either
/// interval, so that no round crosses two due times.
pub fn maintenance_schedule(
    counts: &MaintenanceCounts,
    decode_steps: u64,
    secs_per_decode_step: f64,
    drift_interval: f64,
    recalibration_interval: f64,
) -> Check {
    let clock = decode_steps as f64 * secs_per_decode_step;
    if counts.virtual_now != clock {
        return Err(format!(
            "engine clock {} != {decode_steps} decode steps x {secs_per_decode_step} s",
            counts.virtual_now
        ));
    }
    let want_drift = (clock / drift_interval).floor() as u64;
    if counts.drift_steps != want_drift {
        return Err(format!(
            "{} drift catch-ups, expected {want_drift} over {clock} virtual s",
            counts.drift_steps
        ));
    }
    let want_recal = (clock / recalibration_interval).floor() as u64;
    if counts.recalibrations != want_recal {
        return Err(format!(
            "{} recalibrations, expected {want_recal} over {clock} virtual s",
            counts.recalibrations
        ));
    }
    if counts.rotations == 0 {
        return Err("no spare-tile rotation ran".to_string());
    }
    Ok(())
}

/// After serving, the maintained deployment keeps at least `share` of its
/// t = 0 accuracy on the same held-out episodes.
pub fn accuracy_retained(t0: f64, end: f64, share: f64) -> Check {
    if end >= share * t0 {
        Ok(())
    } else {
        Err(format!(
            "accuracy {end:.3} after serving is below {share} x t=0 accuracy {t0:.3}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nora_serve::RequestLatency;
    use std::time::Duration;

    fn served(id: u64, prompt: &[usize], generated: &[usize]) -> GenResult {
        let mut tokens = prompt.to_vec();
        tokens.extend_from_slice(generated);
        GenResult {
            id,
            tokens,
            prompt_len: prompt.len(),
            latency: RequestLatency {
                queue_wait: Duration::ZERO,
                service: Duration::from_millis(1),
            },
            decode_steps: (prompt.len() + generated.len()) as u64 - 1,
            outcome: RequestOutcome::Completed,
        }
    }

    fn workload() -> (Vec<GenRequest>, Vec<GenResult>) {
        let requests = vec![GenRequest::new(vec![2, 3], 3), GenRequest::new(vec![4], 2)];
        let results = vec![served(0, &[2, 3], &[5, 6, 7]), served(1, &[4], &[8, 9])];
        (requests, results)
    }

    #[test]
    fn completed_workload_passes() {
        let (requests, results) = workload();
        assert_eq!(requests_completed(&requests, &results, 16), Ok(()));
    }

    #[test]
    fn completion_check_rejects_corrupted_retirements() {
        let (requests, results) = workload();
        // A dropped token.
        let mut short = results.clone();
        short[1].tokens.pop();
        assert!(requests_completed(&requests, &short, 16).is_err());
        // An out-of-vocab token.
        let mut oov = results.clone();
        oov[0].tokens[3] = 16;
        assert!(requests_completed(&requests, &oov, 16).is_err());
        // A request retired twice (and another never).
        let mut twice = results.clone();
        twice[1].id = 0;
        assert!(requests_completed(&requests, &twice, 16).is_err());
        // A shed request.
        let mut shed = results.clone();
        shed[0].outcome = RequestOutcome::Shed;
        assert!(requests_completed(&requests, &shed, 16).is_err());
        // A prompt that came back altered.
        let mut altered = results;
        altered[0].tokens[0] = 9;
        assert!(requests_completed(&requests, &altered, 16).is_err());
    }

    #[test]
    fn solo_reserve_check_rejects_a_flipped_token() {
        let batched = vec![vec![2, 3, 5, 6, 7], vec![4, 8, 9]];
        assert_eq!(same_tokens("solo", &batched, &batched.clone()), Ok(()));
        let mut flipped = batched.clone();
        flipped[1][2] = 10;
        assert!(same_tokens("solo", &batched, &flipped).is_err());
        assert!(same_tokens("solo", &batched, &batched[..1]).is_err());
    }

    #[test]
    fn ideal_tile_check_rejects_a_prediction_mismatch() {
        let digital = vec![3, 4, 5, 6];
        assert_eq!(same_predictions(&digital, &digital), Ok(()));
        let mut ideal = digital.clone();
        ideal[2] = 7;
        let err = same_predictions(&ideal, &digital).unwrap_err();
        assert!(err.contains("episode 2"), "{err}");
        assert!(same_predictions(&ideal[..3], &digital).is_err());
    }

    #[test]
    fn accuracy_checks() {
        // 990 vs 985 of 1000: 0.5 pp apart, well within 4 SE (~2 pp).
        assert_eq!(within_se(990, 985, 1000, 4.0), Ok(()));
        // 990 vs 900: 9 pp apart.
        assert!(within_se(990, 900, 1000, 4.0).is_err());
        // A perfect digital score still leaves room for one NORA miss.
        assert_eq!(within_se(1000, 999, 1000, 4.0), Ok(()));
        assert_eq!(naive_far_below(0.06, 0.98, 0.5), Ok(()));
        assert!(naive_far_below(0.60, 0.98, 0.5).is_err());
        assert_eq!(accuracy_retained(0.90, 0.86, 0.95), Ok(()));
        assert!(accuracy_retained(0.90, 0.85, 0.95).is_err());
    }

    #[test]
    fn maintenance_check_rejects_off_by_one_counts() {
        // 500 decode steps x 2000 s = 10^6 s: 40 drift catch-ups at 25 000 s,
        // 10 recalibrations at 100 000 s.
        let good = MaintenanceCounts {
            virtual_now: 1e6,
            drift_steps: 40,
            recalibrations: 10,
            rotations: 3,
        };
        let check =
            |c: &MaintenanceCounts| maintenance_schedule(c, 500, 2000.0, 25_000.0, 100_000.0);
        assert_eq!(check(&good), Ok(()));
        for bad in [
            MaintenanceCounts {
                drift_steps: 39,
                ..good
            },
            MaintenanceCounts {
                drift_steps: 41,
                ..good
            },
            MaintenanceCounts {
                recalibrations: 9,
                ..good
            },
            MaintenanceCounts {
                recalibrations: 11,
                ..good
            },
            MaintenanceCounts {
                rotations: 0,
                ..good
            },
            MaintenanceCounts {
                virtual_now: 1e6 + 2000.0,
                ..good
            },
        ] {
            assert!(check(&bad).is_err(), "{bad:?} passed");
        }
    }
}
