"""Package metadata + console entry point.

Kept as a plain setup.py (no pyproject build isolation) so legacy editable
installs keep working in the offline environment without `wheel`.
"""
from setuptools import find_packages, setup

setup(
    name="nanoxbar",
    version="1.0.0",
    description=(
        "Reproduction of 'Computing with Nano-Crossbar Arrays: Logic "
        "Synthesis and Fault Tolerance' (Altun, Ciriani, Tahoori, DATE 2017)"
    ),
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    # numpy is a hard runtime dependency: repro.reliability.variation and
    # the repro.faultlab / repro.varsim campaign engines are built on it.
    # Floor: >= 1.22 (Generator/SeedSequence APIs and axis-aware kernels the
    # batched cores use).  numpy >= 2.0 is *not* required: the packed-bitset
    # kernels prefer np.bitwise_count when present and select the
    # unpackbits-based fallback in repro.boolean.bitops on 1.x at import.
    install_requires=["numpy>=1.22"],
    extras_require={
        "test": ["pytest", "hypothesis"],
        # optional accelerator: repro.xbareval uses one scipy.ndimage.label
        # pass per batch when available (pure-numpy fallback otherwise)
        "fast": ["scipy"],
    },
    entry_points={
        "console_scripts": [
            "nanoxbar = repro.eval.cli:main",
        ],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering :: Electronic Design Automation (EDA)",
    ],
)
