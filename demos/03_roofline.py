"""
Roofline thresholds across accelerators
=======================================

Where do the transformer blocks flip from memory-bound to compute-bound?
Print the balance and thresholds for every bundled accelerator, then
classify a few concrete workloads on the H100.
"""
from vidcost import (
    VideoJob,
    balance,
    balance_consistent,
    classify,
    load_hardware_db,
    load_model_spec,
    mlp_threshold_exact,
    thresholds,
    token_length,
)

model = load_model_spec()
db = load_hardware_db()

print(f"{'accelerator':<12}{'balance':>9}{'attn thr':>10}{'mlp thr':>9}")
for name, hw in db.items():
    attn_thr, mlp_thr = thresholds(hw)
    flag = "" if balance_consistent(hw) else "  <- published balance inconsistent"
    print(f"{name:<12}{balance(hw):>9.0f}{attn_thr:>10}{mlp_thr:>9}{flag}")

h100 = db["h100"]
exact = mlp_threshold_exact(h100, model.dit)
print(f"\nexact feed-forward crossover on h100 (weights + activations): {exact:.0f} tokens")
print("the shipped threshold uses the weight-dominated approximation instead\n")

for label, job in [
    ("tiny 16x16x1", VideoJob(16, 16, 1, 1)),
    ("480p 5 s", VideoJob(480, 720, 75, 50)),
    ("default 720p", VideoJob(720, 1280, 81, 50)),
]:
    tokens = token_length(job, model.dit)
    regimes = {c.operator: c.regime for c in classify(tokens, h100, model.dit)}
    print(f"{label:<14} tokens={tokens:<7} attention={regimes['attention']:<14} mlp={regimes['mlp']}")
