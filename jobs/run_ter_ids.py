"""Run the TER-iDS operator on one dataset.

    python jobs/run_ter_ids.py --dataset citations --method ter \
        --batches 3 [--scale 1.0]

Prints the measured run summary (pairs, pruning power, timing break-up),
and a note when the stream ran out before the last batch was full. Exits
non-zero when no batch was measured, because the scaled stream never fills
the window.
"""
import argparse

from repro.bench.harness import run_method
from repro.config import TERConfig
from repro.ter.algorithm import METHODS
from repro.ter.metrics import pruning_power


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--dataset", default="citations")
    ap.add_argument("--method", default="ter", choices=METHODS)
    ap.add_argument("--batches", type=int, default=2)
    ap.add_argument("--scale", type=float, default=1.0)
    args = ap.parse_args(argv)

    cfg = TERConfig()
    res = run_method(
        args.dataset, cfg, args.method,
        scale=args.scale, max_batches=args.batches,
    )
    if res.n_arrivals == 0:
        raise SystemExit(
            f"no batch measured: at --scale {args.scale} the {args.dataset} "
            f"stream does not fill the window (w={cfg.w}) and leave a batch; "
            "raise --scale"
        )
    print(f"method={res.method} arrivals={res.n_arrivals}")
    full = 2 * cfg.batch_size * args.batches
    if res.n_arrivals < full:
        print(f"partial: {res.n_arrivals} of {full} arrivals; the stream ran out "
              "before the last batch was full")
    print(f"pairs={len(res.pairs)} sec/arrival={res.per_arrival:.5f}")
    print(f"breakup: select={res.t_select:.3f}s impute={res.t_impute:.3f}s er={res.t_er:.3f}s")
    if res.prune.total:
        print(f"pruning: {pruning_power(res.prune)}")


if __name__ == "__main__":
    main()
