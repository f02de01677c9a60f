"""A device model that can also time a kernel's whole search space in one
call: only tests read the tuning landscape this way."""

from __future__ import annotations

from repro.core.autotuner import config_sort_key
from repro.core.schedule import KernelSchedule, ScheduleConfig
from repro.hw.simulator import DeviceSimulator


class SweepSimulator(DeviceSimulator):
    def sweep_configs(self, kernel: KernelSchedule,
                      ) -> list[tuple[ScheduleConfig, float]]:
        """Time every configuration in a kernel's search space.

        Returns (config, seconds) pairs sorted fastest-first, exact ties
        broken the way the tuner breaks them, so the head is the tuner's
        pick — the raw material of the tuning landscape, useful for
        what-if analysis and for visualising why the tuner picked what it
        picked.
        """
        timings = [
            (cfg, self.kernel_time(kernel, cfg))
            for cfg in kernel.search_space
        ]
        timings.sort(key=lambda pair: (pair[1], config_sort_key(pair[0])))
        return timings
