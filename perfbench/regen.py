"""Write every workload input for one seed, so no stored copy need be trusted.

    python3 perfbench/regen.py --seed 1 --out inputs/

Writes, under the output directory:

- ``ladder/<shape>.json``: the tight networks ``build --out`` makes (the
  seed only picks which knots and pieces the checks sample);
- ``random/<shape>-<trial>.json``: the networks the stress search draws
  (every round draws the same ones);
- ``crosscheck/shallow-<n>.json`` with ``shallow-<n>.points`` (one rational
  per line), and the two networks ``verify`` runs on.

Networks are in the program's JSON schema.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import import_program  # noqa: E402
from workloads import Crosscheck, Ladder, RandomStress  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    program, _ = import_program()

    def name(shape):
        return "x".join(map(str, shape))

    ladder = args.out / "ladder"
    ladder.mkdir(parents=True, exist_ok=True)
    for shape in Ladder.SHAPES:
        net = program.build_tight_network(program.Architecture(shape, output_dim=2))
        program.save_network(net, ladder / f"{name(shape)}.json")

    stress = RandomStress(program, args.seed, args.out / "random")
    stress.setup()
    for i, shape in enumerate(stress.SHAPES):
        for j, net in enumerate(stress.nets[i]):
            program.save_network(net, stress.workdir / f"{name(shape)}-{j}.json")

    cross = Crosscheck(program, args.seed, args.out / "crosscheck")
    cross.setup()  # also writes the two networks verify runs on
    for n, (net, (_, points)) in enumerate(zip(cross.nets, cross.shallow)):
        program.save_network(net, cross.workdir / f"shallow-{n}.json")
        (cross.workdir / f"shallow-{n}.points").write_text("".join(f"{x}\n" for x in points))
    print(f"wrote inputs for seed {args.seed} under {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
