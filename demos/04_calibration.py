"""
Fitting the efficiency factor from measurements
===============================================

Synthesize a noisy step-sweep of latency measurements at a known efficiency,
fit it back with the regression, and validate the calibrated predictions.
"""
import random

from vidcost import (
    MeasurementRecord,
    VideoJob,
    fit_mu,
    load_hardware,
    load_model_spec,
    total_flops,
    validate,
)

model = load_model_spec()
hw = load_hardware()
rng = random.Random(42)

true_mu = 0.456
records = []
for steps in range(10, 210, 10):
    job = VideoJob(720, 1280, 81, steps, 2)
    flops = total_flops(job, model.dit, model.text_encoder, model.vae).total
    ideal = flops / (true_mu * hw.theta_peak)
    records.append(MeasurementRecord(
        model_id="wan2.1-t2v-1.3b", height_px=720, width_px=1280, frames=81,
        steps=steps, latency_s=ideal * (1 + rng.gauss(0, 0.01)),
    ))

result = fit_mu(records, model.dit, model.text_encoder, model.vae, hw)
print(f"true efficiency:   {true_mu}")
print(f"fitted efficiency: {result.mu:.4f}")
print(f"intercept:         {result.intercept_s:.3f} s")
print(f"r_squared:         {result.r_squared:.5f}")

report = validate(records, result.mu, model.dit, model.text_encoder, model.vae, hw, axis="steps")
print(f"\nvalidation over the same sweep:")
print(f"latency MPE: {report.mpe_latency_pct:.2f}%")
print(f"energy MPE:  {report.mpe_energy_pct:.2f}%")
worst = max(report.per_point_errors, key=lambda p: p.latency_pct)
print(f"worst point: {worst.record_id} at {worst.latency_pct:.2f}%")
