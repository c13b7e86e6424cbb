#!/usr/bin/env python3
"""Run the whole pipeline on a synthetic dataset.

Generates a deterministic fixture, computes features, ranks the MFIs,
replays the log under weekly re-ranking, and compares the estimated
approval rate and income against history.  Useful as a quick end-to-end
exercise and as a seed-by-seed behaviour probe.
"""

import argparse
import logging

from mfirank.data import LoanType, click_table, conversion_table, filter_loan_type
from mfirank.evaluate import evaluate_ranking
from mfirank.features import feature_table
from mfirank.fixtures import generate_fixture
from mfirank.rank import rank_mfis


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n-mfis", type=int, default=8)
    parser.add_argument("--n-clients", type=int, default=400)
    parser.add_argument("--damping", type=float, default=0.0)
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args()
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING)

    conversions, products, clicks = generate_fixture(
        args.seed, n_mfis=args.n_mfis, n_clients=args.n_clients
    )
    print(f"fixture: {len(conversions)} applications, {len(products)} cards, "
          f"{len(clicks)} clicks")
    # Standard loans only, as the CLI selects them by default: the
    # conversions and clicks as tables, the product cards as records.
    conversions = filter_loan_type(conversion_table(conversions), LoanType.STANDARD)
    clicks = filter_loan_type(click_table(clicks), LoanType.STANDARD)
    products = [p for p in products if p.loan_type is LoanType.STANDARD]

    table = feature_table(conversions, products, clicks)
    print("\nfeature table:")
    header = f"{'mfi':>5} {'rating':>8} {'lar':>8} {'fair':>4} {'p90 (h)':>9} {'epc':>8}"
    print(header)
    for v in table:
        print(f"{v.mfi_id:>5} {v.rating_norm:8.4f} {v.lar_norm:8.4f} "
              f"{v.fairness:4d} {v.service_p90_sec / 3600:9.2f} {v.epc:8.4f}")

    result = rank_mfis(table, damping=args.damping)
    print("\nranking:", " > ".join(result.ranking))
    print("solver gap: %.3e" % result.stationary.method_gap)

    replay, schedule = evaluate_ranking(conversions, products, clicks,
                                        damping=args.damping)
    sources = [entry.source for entry in schedule]
    print(f"\nreplay over {len(schedule)} weeks "
          f"({sources.count('ranked')} ranked, {sources.count('carried')} carried)")
    print(f"approval rate: {replay.total_lar:.4f} vs historical {replay.historical_lar:.4f}")
    print(f"income/app:    {replay.avg_income:.4f} vs historical {replay.historical_avg_income:.4f}")
    print(f"coverage: {replay.n_processed} processed, "
          f"{replay.n_skipped_no_rank + replay.n_skipped_out_of_range} skipped, "
          f"{replay.n_low_support} low-support lookups")


if __name__ == "__main__":
    main()
