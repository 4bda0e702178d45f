"""
Scaling-law sweeps
==================

Sweep denoising steps, frame count, and resolution, write the results as CSV
and SVG, and check the predicted regimes. Cost is linear in steps, and grows
faster than linearly in frames and resolution, but not yet quadratically: for
wan2.1-t2v-1.3b the local exponents of the exact FLOP totals are 1.58 in pixels
from 480x832 to 720x1280 at 33 frames (1.77 at 81 frames), 1.50 in frames from
33 to 81 at 480p (1.67 at 720p) and 0.9988 in steps from 20 to 50. They tend to
2 only far past the attention crossover l* = (3 + f)*d + m = 14,848 tokens,
where the l^2 term equals the per-token terms; the paper's 480x832, 33-frame
job has 14,040 tokens, below it. The frames sweep's positive second
differences show convex growth, not an exponent of 2.
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

# --- frames: convex growth from the attention term ---
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
