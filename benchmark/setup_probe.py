"""Time one workload set-up in a fresh interpreter.

Usage: python3 setup_probe.py WORKLOAD SEED WORKDIR

Prints the seconds from before `import snapgrip` until the workload's
config is loaded and its first cycle of designs is built.
"""

import sys

import run


def main():
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, str(run.SRC))
    _, seconds = run.timed_setup(name, seed, workdir)
    print(seconds)


if __name__ == "__main__":
    main()
