"""Figure 1: the memory-placement design space.

An arithmetic kernel runs with each combination of code and data placed
in FRAM or SRAM, at 8 MHz (no FRAM wait states) and 24 MHz (3-cycle
stalls). The paper's findings, which must hold here:

* unified FRAM/FRAM is the slowest and most energy-hungry configuration
  at both frequencies (code/data contention hits even at 8 MHz);
* moving *code* to SRAM beats moving *data* to SRAM, because most
  accesses are instruction fetches;
* SRAM/SRAM is fastest but rarely fits real programs.
"""

from repro import systems
from repro.toolchain import PLANS
from repro.experiments.report import format_table

#: Mixed 16-bit arithmetic over a small working set: the "arithmetic
#: benchmark" of §2.2. Multiplies go through the __mulhi libcall exactly
#: as msp430-gcc's arithmetic-heavy code would.
ARITH_SOURCE = """
#define N 24
#define PASSES 6

int workset[N];

int churn(int seed) {
    int value = seed;
    int i;
    for (i = 0; i < N; i++) {
        value = (value * 3 + workset[i]) ^ (value >> 2);
        workset[i] = (workset[i] + value) & 0x7FFF;
    }
    return value;
}

int main(void) {
    int acc = 0;
    int pass;
    int i;
    for (i = 0; i < N; i++) {
        workset[i] = (i * 37 + 11) & 0x7FFF;
    }
    for (pass = 0; pass < PASSES; pass++) {
        acc ^= churn(pass + 1);
    }
    __debug_out(acc & 0xFFFF);
    return 0;
}
"""

#: The four placements of Figure 1, in the paper's presentation order.
CONFIGS = [
    ("FRAM code / FRAM data (unified)", "unified"),
    ("FRAM code / SRAM data (standard)", "standard"),
    ("SRAM code / FRAM data", "code_sram"),
    ("SRAM code / SRAM data", "all_sram"),
]


def collect():
    """Run all placements at both frequencies; returns row dicts."""
    rows = []
    reference_output = None
    for label, plan_name in CONFIGS:
        for frequency in (8, 24):
            system = systems.build(
                "baseline", ARITH_SOURCE, PLANS[plan_name], frequency
            )
            result = system.run()
            if reference_output is None:
                reference_output = result.debug_words
            assert result.debug_words == reference_output
            rows.append(
                {"config": label, "plan": plan_name, **result.as_dict()}
            )
    return rows


def render(rows=None):
    rows = rows or collect()
    base = {
        row["frequency_mhz"]: row for row in rows if row["plan"] == "unified"
    }
    table_rows = []
    for row in rows:
        reference = base[row["frequency_mhz"]]
        table_rows.append(
            [
                row["config"],
                f"{row['frequency_mhz']} MHz",
                f"{row['runtime_us']:.1f}",
                f"{reference['runtime_us'] / row['runtime_us']:.2f}x",
                f"{row['energy_nj'] / 1000:.1f}",
                f"{reference['energy_nj'] / row['energy_nj']:.2f}x",
            ]
        )
    return format_table(
        ["Configuration", "Clock", "Runtime(us)", "Speed vs unified",
         "Energy(uJ)", "Energy gain"],
        table_rows,
        title="Figure 1: memory placement design space",
    )


def main():
    print(render())


if __name__ == "__main__":
    main()
