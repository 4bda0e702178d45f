"""
Scaling-law sweeps
==================

Sweep denoising steps, frame count, and resolution, write the results as CSV
and SVG, and verify the predicted regimes: linear in steps, quadratic in
frames and resolution.
"""
import statistics
from pathlib import Path

from vidcost import SweepSpec, VideoJob, emit, load_hardware, load_model_spec, run_sweep

model = load_model_spec()
hw = load_hardware()
fixed = VideoJob(height_px=720, width_px=1280, frames=81, steps=50, cfg_passes=2)
out_dir = Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

# --- steps: latency is a straight line ---
sweep = SweepSpec(axis="steps", values=tuple(range(1, 201)), fixed=fixed, mu=0.456, hardware=hw)
result = run_sweep(sweep, model)
latencies = [p.cost.latency_s for p in result]
slope, intercept = statistics.linear_regression(range(1, 201), latencies)
print(f"steps sweep: {slope:.3f} s per extra step, {intercept:.3f} s fixed cost")
(out_dir / "steps_sweep.csv").write_bytes(emit(result, "csv"))

# --- frames: quadratic growth from the attention term ---
sweep = SweepSpec(axis="frames", values=tuple(range(4, 101, 4)), fixed=fixed,
                  mu=0.456, hardware=hw)
result = run_sweep(sweep, model)
energies = [p.cost.energy_wh for p in result]
second_diffs = [a - 2 * b + c for a, b, c in zip(energies, energies[1:], energies[2:])]
print(f"frames sweep: energy second differences all positive: {all(d > 0 for d in second_diffs)}")
print(f"  4 frames -> {energies[0]:.2f} Wh, 100 frames -> {energies[-1]:.2f} Wh")
(out_dir / "frames_sweep.svg").write_bytes(emit(result, "svg"))

# --- resolution: doubling both dimensions roughly quadruples-to-16x the cost ---
values = ((256, 256), (512, 512), (1024, 1024), (2048, 2048))
sweep = SweepSpec(axis="resolution", values=values, fixed=fixed, mu=0.456, hardware=hw)
result = run_sweep(sweep, model)
for point in result:
    h, w = point.axis_value
    print(f"  {h}x{w}: tokens={point.tokens}, latency={point.cost.latency_s:.1f} s")
(out_dir / "resolution_sweep.csv").write_bytes(emit(result, "csv"))

print(f"\nwrote CSV/SVG files under {out_dir}")
