"""Both scalers skip their rounds while the Job Store is down and run
the first round after it is back.

Timer times accumulate in floats (``now + interval``), so off the 120 s
grid the gap between two rounds can fall a hair short of 120 s; a round
guard keyed on elapsed time would then skip the 600.3 s round and resume
only at 720.3 s.
"""

from repro import JobSpec, PlatformConfig, Turbine
from repro.scaler import ReactiveAutoScaler

#: Store down after the 240.3 s round and back before the 600.3 s one.
OUTAGE = (300.3, 500.3)
EXPECTED_ROUNDS = [120.3, 240.3, 600.3, 720.3]


def one_job_platform():
    platform = Turbine.create(
        num_hosts=2, seed=3,
        config=PlatformConfig(num_shards=8, containers_per_host=1),
    )
    platform.start()
    platform.provision(JobSpec(job_id="job", input_category="cat"))
    platform.engine.run_until(0.3)
    return platform


def evaluated_at(platform, scaler, method):
    """Run through the outage, recording when ``scaler.<method>`` ran."""
    times = []
    evaluate = getattr(scaler, method)

    def recording(*args):
        times.append(round(platform.engine.now, 6))
        return evaluate(*args)

    setattr(scaler, method, recording)
    platform.engine.call_at(OUTAGE[0], platform.job_store.fail)
    platform.engine.call_at(OUTAGE[1], platform.job_store.recover)
    platform.engine.run_until(730.0)
    return times


def test_proactive_scaler_resumes_on_the_first_round_after_recovery():
    platform = one_job_platform()
    scaler = platform.attach_scaler()
    assert evaluated_at(platform, scaler, "_evaluate_job") == EXPECTED_ROUNDS


def test_reactive_scaler_resumes_on_the_first_round_after_recovery():
    platform = one_job_platform()
    scaler = ReactiveAutoScaler(
        platform.engine, platform.job_service, platform.metrics,
        platform.scribe,
    )
    scaler.start()
    assert evaluated_at(platform, scaler, "_evaluate") == EXPECTED_ROUNDS
