"""Energy model and account tests."""

import pytest

from repro.energy import EnergyAccount, EnergyModel


class TestCharging:
    def test_charge_raw(self):
        account = EnergyAccount()
        account.charge("host", 100.0)
        account.charge("host", 50.0)
        assert account.by_category()["host"] == 150.0
        assert account.total_nj == 150.0

    def test_charge_power_uses_w_equals_nj_per_ns(self):
        account = EnergyAccount()
        account.charge_power("pe_compute", watts=2.0, duration_ns=1_000.0)
        assert account.total_nj == 2_000.0

    def test_charge_bytes_is_picojoules(self):
        account = EnergyAccount()
        account.charge_bytes("pcie", pj_per_byte=10.0, size=1_000)
        assert account.total_nj == pytest.approx(10.0)

    def test_negative_charges_rejected(self):
        account = EnergyAccount()
        with pytest.raises(ValueError):
            account.charge("x", -1.0)
        with pytest.raises(ValueError):
            account.charge_power("x", 1.0, -1.0)
        with pytest.raises(ValueError):
            account.charge_bytes("x", 1.0, -1)

    def test_total_mj_scale(self):
        account = EnergyAccount()
        account.charge("pram", 2e6)
        assert account.total_mj == pytest.approx(2.0)


class TestModelDefaults:
    def test_pram_write_energy_exceeds_read(self):
        model = EnergyModel()
        assert model.pram_set_pj_per_byte > model.pram_read_pj_per_byte * 10

    def test_pram_standby_far_below_dram_background(self):
        # The headline DRAM-less energy story: PRAM needs no refresh.
        model = EnergyModel()
        assert model.pram_idle_w < model.accel_dram_background_w / 10

    def test_pe_power_states_ordered(self):
        model = EnergyModel()
        assert model.pe_sleep_w < model.pe_idle_w < model.pe_active_w

    def test_flash_program_exceeds_read(self):
        model = EnergyModel()
        assert model.flash_program_nj_per_page > model.flash_read_nj_per_page
