"""Tests for device specs (Table 3), roofline model, power/thermal."""

import pytest

from repro.errors import HardwareError
from repro.hardware.device import (DeviceClass, DeviceSpec,
                                   GpuArchitecture)
from repro.hardware.power import PowerModel, ThermalState
from repro.hardware.registry import (BENCHMARK_DEVICES,
                                     EDGE_DEVICE_ORDER, all_devices,
                                     device_spec, table3_rows)
from repro.hardware.roofline import RooflineModel
from repro.models.spec import model_spec


class TestTable3Values:
    @pytest.mark.parametrize("name,cores,tensor,ram,power,price", [
        ("orin-agx", 2048, 64, 32, 60, 2370),
        ("xavier-nx", 384, 48, 8, 15, 460),
        ("orin-nano", 1024, 32, 8, 15, 630),
    ])
    def test_jetson_rows_verbatim(self, name, cores, tensor, ram,
                                  power, price):
        d = device_spec(name)
        assert d.cuda_cores == cores
        assert d.tensor_cores == tensor
        assert d.ram_gb == ram
        assert d.peak_power_w == power
        assert d.price_usd == price

    def test_jetpack_cuda_versions(self):
        assert device_spec("orin-agx").jetpack_version == "6.1"
        assert device_spec("orin-agx").cuda_version == "12.6"
        assert device_spec("xavier-nx").jetpack_version == "5.0.2"
        assert device_spec("orin-nano").jetpack_version == "5.1.1"

    def test_weights_and_form_factors(self):
        assert device_spec("orin-agx").weight_g == pytest.approx(872.5)
        assert device_spec("xavier-nx").weight_g == 174
        assert device_spec("orin-nano").form_factor_mm == (100, 79, 21)

    def test_architectures(self):
        assert device_spec("xavier-nx").gpu_architecture is \
            GpuArchitecture.VOLTA
        assert device_spec("orin-agx").gpu_architecture is \
            GpuArchitecture.AMPERE

    def test_workstation_spec(self):
        wk = device_spec("rtx4090")
        assert wk.cuda_cores == 16384
        assert wk.tensor_cores == 512
        assert wk.ram_gb == 24
        assert "7900X" in wk.cpu_model

    def test_unknown_device(self):
        with pytest.raises(HardwareError):
            device_spec("jetson-thor")

    def test_registry_filters(self):
        edge = all_devices(DeviceClass.EDGE)
        assert {d.name for d in edge} == set(EDGE_DEVICE_ORDER)
        assert len(table3_rows()) == 3
        assert len(BENCHMARK_DEVICES) == 4

    def test_device_validation(self):
        with pytest.raises(HardwareError):
            DeviceSpec(name="bad", display_name="Bad",
                       device_class=DeviceClass.EDGE,
                       gpu_architecture=GpuArchitecture.AMPERE,
                       cuda_cores=0, tensor_cores=0, ram_gb=1,
                       peak_power_w=10)

    def test_derived_metrics(self):
        d = device_spec("xavier-nx")
        assert d.compute_per_watt > 0
        assert d.compute_per_dollar > 0
        assert d.is_edge
        assert not device_spec("rtx4090").is_edge

    def test_fits_model(self):
        nx = device_spec("xavier-nx")
        assert nx.fits_model(130.38)          # YOLOv8-x fits in 8 GB
        assert not nx.fits_model(7000.0)      # a 7 GB model does not


class TestRoofline:
    @pytest.fixture(scope="class")
    def rl(self):
        return RooflineModel()

    def test_breakdown_terms_positive(self, rl):
        b = rl.breakdown(model_spec("yolov8-m"),
                         device_spec("orin-nano"))
        assert b.compute_ms > 0 and b.memory_ms > 0
        assert b.overhead_ms > 0 and b.postprocess_ms > 0
        assert b.total_ms == pytest.approx(
            b.gpu_ms + b.overhead_ms + b.postprocess_ms)

    def test_monotone_in_flops(self, rl):
        dev = device_spec("orin-agx")
        t = [rl.median_latency_ms(model_spec(f"yolov8-{v}"), dev)
             for v in "nmx"]
        assert t[0] < t[1] < t[2]

    def test_monotone_in_device_speed(self, rl):
        m = model_spec("yolov8-m")
        assert rl.median_latency_ms(m, device_spec("rtx4090")) < \
            rl.median_latency_ms(m, device_spec("orin-agx")) < \
            rl.median_latency_ms(m, device_spec("xavier-nx"))

    def test_throughput_inverse_of_latency(self, rl):
        m = model_spec("yolov8-n")
        d = device_spec("rtx4090")
        assert rl.throughput_fps(m, d) == pytest.approx(
            1000.0 / rl.median_latency_ms(m, d))

    def test_speedup_symmetry(self, rl):
        m = model_spec("yolov8-x")
        fast = device_spec("rtx4090")
        slow = device_spec("xavier-nx")
        s = rl.speedup(m, fast, slow)
        assert s == pytest.approx(1.0 / rl.speedup(m, slow, fast))

    def test_validation(self):
        with pytest.raises(HardwareError):
            RooflineModel(activation_traffic_factor=0.0)


class TestPowerThermal:
    def test_power_monotone_in_utilisation(self):
        pm = PowerModel()
        d = device_spec("orin-agx")
        assert pm.draw_watts(d, 0.0) < pm.draw_watts(d, 0.5) < \
            pm.draw_watts(d, 1.0)

    def test_power_bounded_by_peak(self):
        pm = PowerModel()
        d = device_spec("xavier-nx")
        assert pm.draw_watts(d, 1.0) <= d.peak_power_w + 1e-9

    def test_utilisation_validation(self):
        with pytest.raises(HardwareError):
            PowerModel().draw_watts(device_spec("orin-agx"), 1.5)

    def test_energy_per_frame(self):
        pm = PowerModel()
        d = device_spec("orin-nano")
        e = pm.energy_per_frame_mj(d, latency_ms=100.0)
        assert e > 0

    def test_thermal_heats_and_throttles(self):
        ts = ThermalState(throttle_temp_c=40.0, recover_temp_c=35.0,
                          heat_capacity=5.0, time_constant_s=1000.0)
        mult = 1.0
        for _ in range(200):
            mult = ts.step(power_w=50.0, dt_s=1.0)
        assert ts.temperature_c > 40.0 or ts.throttled
        assert mult == ts.throttle_factor

    def test_thermal_recovers(self):
        ts = ThermalState(throttle_temp_c=40.0, recover_temp_c=35.0,
                          heat_capacity=5.0, time_constant_s=10.0)
        for _ in range(200):
            ts.step(power_w=50.0, dt_s=1.0)
        for _ in range(500):
            mult = ts.step(power_w=0.0, dt_s=1.0)
        assert not ts.throttled
        assert mult == 1.0

    def test_thermal_validation(self):
        with pytest.raises(HardwareError):
            ThermalState(throttle_temp_c=30.0, recover_temp_c=35.0)
        with pytest.raises(HardwareError):
            ThermalState(throttle_factor=0.5)
