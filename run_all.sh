#!/usr/bin/env bash
# Runs every experiment binary, teeing output to results/logs/.
# Usage: ./run_all.sh [--quick|--large]
# Exits non-zero when the build or any experiment fails; the remaining
# experiments still run.
set -u -o pipefail
MODE="${1:-}"
BINS=(
  fig3_gap
  fig4_paths
  fig5_compare
  fig8_frontier
  fig9_cost
  fig10_failures
  table3_limits
  table5_oversub
  tablea1_clos
  figa1_theory_gap
  figa2_jellyfish_ft
  figa3_xpander_ft
  figa4_expansion
  figa5_gap_k
  ablation_matching
  ablation_switch_level
  routing_showdown
  validate_worstcase
  spinefree_eval
  fct_failures
)
mkdir -p results/logs
cargo build --release -p dcn-bench || exit 1
FAILED=()
for b in "${BINS[@]}"; do
  echo "### running $b $MODE"
  cargo run --release -q -p dcn-bench --bin "$b" -- $MODE 2>&1 | tee "results/logs/$b.log" \
    || FAILED+=("$b")
done
# fig5 additionally has a --large panel (Figure 5c/d).
if [ "$MODE" != "--quick" ]; then
  echo "### running fig5_compare --large"
  cargo run --release -q -p dcn-bench --bin fig5_compare -- --large 2>&1 | tee results/logs/fig5_large.log \
    || FAILED+=("fig5_compare --large")
fi
if [ ${#FAILED[@]} -gt 0 ]; then
  echo "failed experiments: ${FAILED[*]} (logs in results/logs/)" >&2
  exit 1
fi
echo "all experiments done; CSVs in results/, logs in results/logs/"
