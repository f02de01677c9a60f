"""Admission in the request book: per-worker and per-tenant caps on the
copies out, decided in ``RequestBook.issue`` under the book's one lock."""

import sys
import threading

import pytest

from repro.cluster import SHED_CAPACITY, SHED_TENANT, AdmissionPolicy
from repro.cluster.book import RequestBook


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(max_outstanding_per_worker=0)
        with pytest.raises(ValueError):
            AdmissionPolicy(tenant_share=0)

    def test_limits(self):
        pol = AdmissionPolicy()
        assert pol.max_outstanding_per_worker == 54
        assert pol.tenant_share == 32

    def test_limits_never_zero(self):
        """The smallest caps still admit one copy, then shed."""
        book = RequestBook(AdmissionPolicy(max_outstanding_per_worker=1,
                                           tenant_share=1))
        assert [TestController.admit(book, "w0") for _ in range(2)] \
            == [1, SHED_CAPACITY]
        assert [TestController.admit(book, "w1") for _ in range(2)] \
            == [2, SHED_CAPACITY]

    def test_tenant_share_disabled(self):
        book = RequestBook(AdmissionPolicy(max_outstanding_per_worker=3,
                                           tenant_share=None))
        assert [TestController.admit(book, "w0") for _ in range(4)][2:] \
            == [3, SHED_CAPACITY]


class TestController:
    @staticmethod
    def _book(cap=4, tenant_share=None):
        return RequestBook(AdmissionPolicy(max_outstanding_per_worker=cap,
                                           tenant_share=tenant_share))

    @staticmethod
    def admit(book, worker, tenant="default"):
        """Book one copy; its wire id, or the shed reason."""
        verdict = book.issue(book.open(object(), "mlp", tenant, None),
                             worker)
        return verdict.wire_id if verdict.shed is None else verdict.shed

    def test_capacity_shed_and_release(self):
        book = self._book(cap=2)
        first = self.admit(book, "w0")
        assert isinstance(self.admit(book, "w0"), int)
        assert self.admit(book, "w0") == SHED_CAPACITY
        book.settle(first)
        assert isinstance(self.admit(book, "w0"), int)

    def test_default_caps_shed_the_55th_copy_and_a_tenants_33rd(self):
        book = RequestBook()
        for i in range(54):     # two tenants, 27 each: under their cap
            assert isinstance(self.admit(book, "w0", f"t{i % 2}"), int)
        assert self.admit(book, "w0", "t2") == SHED_CAPACITY
        for _ in range(32):
            assert isinstance(self.admit(book, "w1", "greedy"), int)
        assert self.admit(book, "w1", "greedy") == SHED_TENANT
        assert isinstance(self.admit(book, "w1", "polite"), int)

    def test_tenant_fair_share(self):
        """One tenant cannot hold more than its share; others still fit."""
        book = self._book(cap=4, tenant_share=2)
        assert isinstance(self.admit(book, "w0", "greedy"), int)
        assert isinstance(self.admit(book, "w0", "greedy"), int)
        assert self.admit(book, "w0", "greedy") == SHED_TENANT
        assert isinstance(self.admit(book, "w0", "polite"), int)

    def test_workers_isolated(self):
        book = self._book(cap=1)
        assert isinstance(self.admit(book, "w0"), int)
        assert isinstance(self.admit(book, "w1"), int)
        assert self.admit(book, "w0") == SHED_CAPACITY
        assert book.backlog("w0")[0] == 1 and book.backlog("w1")[0] == 1

    def test_release_cleans_bookkeeping(self):
        book = self._book()
        book.settle(self.admit(book, "w0", "t"))
        assert book.backlog("w0") == (0, 0.0)
        assert book._tenant_out == {}

    def test_thread_safety_conserves_slots(self):
        """Hammered from many threads, booked - settled never exceeds
        the window and never goes negative."""
        book = self._book(cap=8)
        errors = []

        def worker():
            for _ in range(200):
                wire_id = self.admit(book, "w0")
                if wire_id != SHED_CAPACITY:
                    n = book.backlog("w0")[0]
                    if not 0 < n <= 8:
                        errors.append(n)
                    book.settle(wire_id)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)     # switch threads mid-update
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert book.backlog("w0") == (0, 0.0)
        assert book._tenant_out == {}
