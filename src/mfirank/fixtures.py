"""Deterministic synthetic datasets for tests and demos.

The generator produces the three datasets (conversions, products,
clicks) with realistic shape: clicks are a superset of conversions,
clients apply to several MFIs, statuses and incomes follow per-MFI
approval rates, and product cards carry Russian-language schedule
phrases so duration parsing has something to chew on.  Identical seeds
yield byte-identical CSV output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import datetime, timedelta

from .data import (
    ClickRecord,
    ConversionRecord,
    LoanType,
    ProductRecord,
    Status,
)

_OS_POOL = ("Android", "iOS", "Windows", "Linux", "Mac OS X")
_BROWSERS = ("Chrome Mobile", "Mobile Safari", "Chrome", "Firefox", "Opera")
_DEVICE_TYPES = ("smartphone", "desktop", "tablet")
_REGIONS = ("Moscow", "Saint Petersburg", "Novosibirsk", "Kazan", "Omsk")
_CONSIDERATION_PHRASES = (
    "моментально",
    "в течение 5 минут",
    "в течение 20 минут",
    "в течение 1 часа",
    "до 24 часов",
    "решение за 10 мин",
)
_PAYMENT_PHRASES = (
    "моментально",
    "в течение 10 минут",
    "в течение 30 минут",
    "в течение 2 часов",
    "в течение 1 рабочего дня",
)
_START = datetime(2023, 1, 2, 0, 0, 0)
_APPLICATIONS_PER_CLIENT = 2.2
_CONVERSION_RATE = 0.75  # share of clicks that become applications
_PENDING_RATE = 0.08
_CO_APPLICATION_RATE = 0.35  # chance a client hits >1 MFI the same day
_INCOME_SCALE = 200.0


@dataclass(frozen=True)
class FixtureConfig:
    """Shape parameters for the synthetic dataset generator."""

    n_weeks: int = 8


def _mfi_ids(n: int) -> list[str]:
    return [str(10 + 3 * i) for i in range(n)]


def generate_fixture(
    seed: int,
    n_mfis: int = 8,
    n_clients: int = 120,
    config: FixtureConfig | None = None,
) -> tuple[list[ConversionRecord], list[ProductRecord], list[ClickRecord]]:
    """Build one synthetic dataset triple.

    Raises ValueError when fewer than two MFIs are requested, since the
    pairwise ranking needs at least a pair.
    """
    if n_mfis < 2:
        raise ValueError("need at least 2 MFIs")
    if n_clients < 1:
        raise ValueError("need at least 1 client")

    rng = random.Random(seed)
    mfis = _mfi_ids(n_mfis)
    rates = {m: 0.10 + 0.5 * rng.random() for m in mfis}
    # One static site-wide ordering, stamped on every record the way the
    # upstream logs carry the rank the client actually saw.
    global_order = list(mfis)
    rng.shuffle(global_order)
    global_rank = {m: i + 1 for i, m in enumerate(global_order)}

    products: list[ProductRecord] = []
    for m in mfis:
        n_reviews = rng.randint(0, 400)
        products.append(
            ProductRecord(
                mfi_id=m,
                card_id=f"card-{m}",
                loan_type=LoanType.STANDARD,
                region=rng.choice(_REGIONS),
                consideration_time=rng.choice(_CONSIDERATION_PHRASES),
                payment_time=rng.choice(_PAYMENT_PHRASES),
                avg_user_rating=round(1.0 + 4.0 * rng.random(), 1) if n_reviews else None,
                n_reviews=n_reviews,
                unreliability=rng.random() < 0.1,
                bad_credit_score=rng.random() < 0.5,
                loan_extension=rng.random() < 0.5,
                loan_amount_min=1000.0,
                loan_amount_max=float(rng.randrange(15, 101) * 1000),
                loan_term_min=7.0,
                loan_term_max=float(rng.randrange(14, 70)),
                interest_min=0.0,
                interest_max=1.0,
                age_min=18.0,
                age_max=float(rng.randrange(60, 76)),
            )
        )
        if rng.random() < 0.3:  # some MFIs also run a long-term card
            products.append(
                ProductRecord(
                    mfi_id=m,
                    card_id=f"card-{m}-lt",
                    loan_type=LoanType.LONG_TERM,
                    region=rng.choice(_REGIONS),
                    consideration_time=rng.choice(_CONSIDERATION_PHRASES),
                    payment_time=rng.choice(_PAYMENT_PHRASES),
                    n_reviews=0,
                )
            )

    conversions: list[ConversionRecord] = []
    clicks: list[ClickRecord] = []
    span = timedelta(weeks=(config or FixtureConfig()).n_weeks)
    for c in range(n_clients):
        client_id = f"cl{c:05d}"
        n_apps = max(1, round(rng.expovariate(1.0 / _APPLICATIONS_PER_CLIENT)))
        when = _START + timedelta(seconds=rng.randrange(int(span.total_seconds())))
        os_name = rng.choice(_OS_POOL)
        browser = rng.choice(_BROWSERS)
        device_type = rng.choice(_DEVICE_TYPES)
        region = rng.choice(_REGIONS)
        for _ in range(n_apps):
            mfi = rng.choice(mfis)
            if rng.random() >= _CO_APPLICATION_RATE:
                # fresh shopping session on some later day
                when = _START + timedelta(seconds=rng.randrange(int(span.total_seconds())))
            else:
                when = when + timedelta(minutes=rng.randrange(2, 120))
            click = ClickRecord(
                mfi_id=mfi,
                click_time=when,
                client_id=client_id,
                loan_type=LoanType.STANDARD,
                card_id=f"card-{mfi}",
                page_id="1",
                page_rank=global_rank[mfi],
            )
            clicks.append(click)
            if rng.random() >= _CONVERSION_RATE:
                continue
            conversion_time = when + timedelta(seconds=rng.randrange(30, 3000))
            roll = rng.random()
            if roll < _PENDING_RATE:
                status, sale_time, income = Status.PENDING, None, None
            elif rng.random() < rates[mfi]:
                status = Status.SALE
                sale_time = conversion_time + timedelta(seconds=rng.randrange(60, 90000))
                income = round(_INCOME_SCALE * (0.5 + rng.random()), 6)
            else:
                status, sale_time, income = Status.REJECTED, None, None
            conversions.append(
                ConversionRecord(
                    mfi_id=mfi,
                    loan_type=LoanType.STANDARD,
                    client_id=client_id,
                    click_time=when,
                    status=status,
                    card_id=f"card-{mfi}",
                    page_id="1",
                    page_rank=global_rank[mfi],
                    global_rank=global_rank[mfi],
                    conversion_time=conversion_time,
                    sale_time=sale_time,
                    income=income,
                    country="Russia",
                    region=region,
                    device_type=device_type,
                    os=os_name,
                    browser=browser,
                )
            )

    key = lambda r: (r.click_time, r.client_id, r.mfi_id)
    conversions.sort(key=key)
    clicks.sort(key=key)
    return conversions, products, clicks
